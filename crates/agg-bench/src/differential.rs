//! Differential fuzzing harness: random graphs from every generator,
//! every execution configuration, compared bit-for-bit against the
//! instrumented CPU oracles.
//!
//! The GPU simulator executes kernels for real, so any divergence from
//! the serial oracles is a genuine bug in a kernel, the adaptive
//! runtime, or the oracle itself — there is no floating-point
//! "close enough" for BFS levels, SSSP distances, or CC labels. The
//! harness therefore:
//!
//! 1. generates a corpus spanning all six synthetic generators, with the
//!    degenerate features real inputs have (duplicate edges, self-loops,
//!    isolated nodes, disconnected components);
//! 2. runs every static variant, the adaptive runtime, direction-
//!    optimized BFS, shuffled [`Session`] batches, and multi-device
//!    sharded execution ([`ShardedGraph`], 2 and 4 shards) on each
//!    graph — optionally under the simulator's data-race detector;
//! 3. compares results bit-for-bit (PageRank ranks with an epsilon — the
//!    GPU accumulates f32 in a different order than the serial oracle);
//! 4. minimizes any divergence with a delta-debugging loop before
//!    reporting it, so the regression test a bug earns is small.
//!
//! The `repro differential` subcommand and the workspace-level
//! `tests/differential.rs` suite both drive [`fuzz`].

use agg_core::{CoreError, Query, RunOptions, Session, ShardedGraph, Strategy};
use agg_cpu::CpuCostModel;
use agg_gpu_sim::{DeviceConfig, ExecEngine, Interconnect, Json, SimFidelity};
use agg_graph::generators::{
    erdos_renyi, powerlaw, regular_mix, rmat, road_grid, watts_strogatz, PowerLawConfig,
    RegularMixConfig, RmatConfig, RoadGridConfig, WattsStrogatzConfig,
};
use agg_graph::{CsrGraph, GraphBuilder, NodeId};
use agg_kernels::Variant;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator names, in corpus rotation order (`case % 6` picks one).
pub const GENERATORS: [&str; 6] = ["erdos", "rmat", "powerlaw", "grid", "smallworld", "regular"];

/// Fuzzing parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of corpus graphs.
    pub cases: usize,
    /// Corpus seed: the whole run is deterministic in (`cases`, `seed`).
    pub seed: u64,
    /// Run every launch fully timed under the simulator's data-race
    /// detector and report its counters. Off by default: differential
    /// runs compare values, so they use the fast-functional fidelity.
    pub race_detect: bool,
    /// Explicit fidelity override. When set, it wins over `race_detect`;
    /// `repro simbench` uses this to run a timed-without-races leg (the
    /// configuration paper-scale timed tables pay).
    pub fidelity: Option<SimFidelity>,
    /// Maximum edge weight for the SSSP corpus.
    pub max_weight: u32,
    /// Run a shuffled Session batch every this many cases (0 = never).
    pub batch_period: usize,
    /// Execution engine for every simulated device in the sweep. The
    /// bytecode default is what production uses; `repro simbench` also
    /// runs the whole suite under [`ExecEngine::Interpreter`] to measure
    /// the engines against each other.
    pub engine: ExecEngine,
    /// Shard counts for the multi-device sweep: every case also runs
    /// BFS/SSSP/CC through a [`ShardedGraph`] at each of these counts
    /// (empty = skip sharded execution).
    pub shard_counts: Vec<usize>,
}

impl FuzzConfig {
    /// Defaults: fast-functional fidelity (race detection off), weights
    /// in `1..=64`, a shuffled batch every 8th case, sharded runs at 2
    /// and 4 devices.
    pub fn new(cases: usize, seed: u64) -> FuzzConfig {
        FuzzConfig {
            cases,
            seed,
            race_detect: false,
            fidelity: None,
            max_weight: 64,
            batch_period: 8,
            engine: ExecEngine::Bytecode,
            shard_counts: vec![2, 4],
        }
    }

    /// Fidelity every simulated device in the sweep runs at: the
    /// explicit override if set, otherwise timed+races when
    /// `race_detect` is on and fast-functional when it is off.
    pub fn effective_fidelity(&self) -> SimFidelity {
        self.fidelity.unwrap_or(if self.race_detect {
            SimFidelity::TimedWithRaces
        } else {
            SimFidelity::Functional
        })
    }
}

/// One corpus entry.
pub struct CaseGraph {
    /// The (weighted) graph.
    pub graph: CsrGraph,
    /// Generator that produced it (see [`GENERATORS`]).
    pub generator: &'static str,
    /// Query source node.
    pub src: NodeId,
}

/// Deterministically generates corpus case `case` for `seed`.
///
/// Sizes stay small (≤ ~60 nodes) so the full execution matrix stays
/// fast; the point is structural coverage, not scale. Post-generation
/// "decoration" injects self-loops, duplicate edges, and isolated tail
/// nodes — the degenerate features file parsers let through.
pub fn case_graph(seed: u64, case: usize) -> CaseGraph {
    case_graph_weighted(seed, case, 64)
}

/// [`case_graph`] with an explicit weight ceiling (used by [`fuzz`] to
/// honor [`FuzzConfig::max_weight`]). The structural rng draws are
/// identical regardless of the ceiling.
pub fn case_graph_weighted(seed: u64, case: usize, max_weight: u32) -> CaseGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let pick = case % GENERATORS.len();
    let g = match pick {
        0 => {
            // Sparse directed G(n, m): isolated nodes and disconnected
            // components when m is small; duplicates when dedup is off.
            let n = rng.gen_range(4usize..=48);
            let m = rng.gen_range(0usize..=n * 4);
            let dedup = rng.gen_bool(0.5);
            erdos_renyi(&mut rng, n, m, dedup).expect("corpus erdos")
        }
        1 => {
            // R-MAT: skewed, self-loops and duplicates by construction.
            let scale = rng.gen_range(3u32..=5);
            let cfg = RmatConfig {
                scale,
                edges: rng.gen_range(0usize..=(1usize << scale) * 4),
                a: 0.45,
                b: 0.22,
                c: 0.22,
                dedup: rng.gen_bool(0.3),
            };
            rmat(&mut rng, &cfg).expect("corpus rmat")
        }
        2 => {
            // Power-law hubs: the contended-atomics shape.
            let nodes = rng.gen_range(8usize..=48);
            let cfg = PowerLawConfig {
                nodes,
                alpha: rng.gen_range(1.8..2.8),
                min_degree: 1,
                max_degree: (nodes - 1).max(2),
                target_avg_degree: rng.gen_range(2.0..6.0),
                dest_zipf: rng.gen_range(0.8..1.4),
            };
            powerlaw(&mut rng, &cfg).expect("corpus powerlaw")
        }
        3 => {
            // Road grid: high diameter; low keep_prob disconnects it.
            let cfg = RoadGridConfig {
                width: rng.gen_range(2usize..=7),
                height: rng.gen_range(2usize..=7),
                keep_prob: rng.gen_range(0.4..1.0),
                hubs: rng.gen_range(0usize..=2),
                highways_per_hub: rng.gen_range(0usize..=2),
            };
            road_grid(&mut rng, &cfg).expect("corpus grid")
        }
        4 => {
            // Small world: ring lattice + rewiring.
            let cfg = WattsStrogatzConfig {
                nodes: rng.gen_range(6usize..=48),
                k: rng.gen_range(1usize..=3),
                rewire_prob: rng.gen_range(0.0..0.5),
            };
            watts_strogatz(&mut rng, &cfg).expect("corpus smallworld")
        }
        _ => {
            // Regular mix: near-uniform outdegrees.
            let cfg = RegularMixConfig {
                nodes: rng.gen_range(6usize..=48),
                fixed_fraction: rng.gen_range(0.0..1.0),
                fixed_degree: rng.gen_range(1usize..=6),
                uniform_max: rng.gen_range(1usize..=6),
            };
            regular_mix(&mut rng, &cfg).expect("corpus regular")
        }
    };
    let g = decorate(&mut rng, &g);
    let max_w = rng.gen_range(1u32..=max_weight.max(1));
    let g = g.with_random_weights(&mut rng, max_w);
    let n = g.node_count() as u32;
    let src = rng.gen_range(0..n.max(1));
    CaseGraph {
        graph: g,
        generator: GENERATORS[pick],
        src,
    }
}

/// Injects degenerate structure: self-loops, duplicate edges, isolated
/// tail nodes (which also guarantee a disconnected graph).
fn decorate(rng: &mut StdRng, g: &CsrGraph) -> CsrGraph {
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().map(|(s, d, _)| (s, d)).collect();
    let mut n = g.node_count();
    if n > 0 && rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1usize..=3) {
            let v = rng.gen_range(0..n as u32);
            edges.push((v, v));
        }
    }
    if !edges.is_empty() && rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1usize..=4) {
            let e = edges[rng.gen_range(0..edges.len())];
            edges.push(e);
        }
    }
    if rng.gen_bool(0.4) {
        n += rng.gen_range(1usize..=4);
    }
    GraphBuilder::from_edges(n, &edges).expect("decorated corpus graph")
}

/// Which algorithm a differential run checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Alg {
    Bfs,
    Sssp,
    Cc,
}

impl Alg {
    fn query(self, src: NodeId) -> Query {
        match self {
            Alg::Bfs => Query::Bfs { src },
            Alg::Sssp => Query::Sssp { src },
            Alg::Cc => Query::Cc,
        }
    }

    fn oracle(self, g: &CsrGraph, src: NodeId) -> Vec<u32> {
        let model = CpuCostModel::default();
        match self {
            Alg::Bfs => agg_cpu::bfs(g, src, &model).result,
            Alg::Sssp => agg_cpu::dijkstra(g, src, &model).result,
            Alg::Cc => agg_cpu::connected_components(g, &model).result,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Alg::Bfs => "bfs",
            Alg::Sssp => "sssp",
            Alg::Cc => "cc",
        }
    }
}

/// One execution configuration of the matrix.
#[derive(Debug, Clone, Copy)]
enum Exec {
    Adaptive,
    Static(Variant),
    BottomUp,
}

impl Exec {
    fn options(self) -> RunOptions {
        match self {
            Exec::Adaptive => RunOptions::default(),
            Exec::Static(v) => RunOptions::static_variant(v),
            Exec::BottomUp => RunOptions::builder()
                .strategy(Strategy::DirectionOptimized {
                    bottom_up_fraction: 0.25,
                })
                .build(),
        }
    }

    fn name(self) -> String {
        match self {
            Exec::Adaptive => "adaptive".into(),
            Exec::Static(v) => v.name().to_string(),
            Exec::BottomUp => "bottom-up".into(),
        }
    }
}

/// A minimized reproducer for a divergence.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// Node count of the minimized graph.
    pub nodes: usize,
    /// Query source in the minimized graph.
    pub src: NodeId,
    /// Weighted edge list of the minimized graph.
    pub edges: Vec<(NodeId, NodeId, u32)>,
}

/// One confirmed difference between a GPU run and its CPU oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Corpus case index.
    pub case: usize,
    /// Generator that produced the graph.
    pub generator: String,
    /// Algorithm that diverged.
    pub algo: String,
    /// Execution configuration (`variant name`, `adaptive`, `bottom-up`,
    /// `batch[i]`, or `sharded[k]`).
    pub exec: String,
    /// Node count of the original graph.
    pub nodes: usize,
    /// Edge count of the original graph.
    pub edges: usize,
    /// Query source.
    pub src: NodeId,
    /// Engine error, when the run failed outright instead of
    /// mis-answering.
    pub error: Option<String>,
    /// Indices where expected and actual differ (capped at 16).
    pub mismatched_at: Vec<usize>,
    /// Delta-debugged reproducer (absent for batch/error divergences).
    pub minimized: Option<Minimized>,
}

impl Divergence {
    /// This divergence as a JSON object (the CI artifact element).
    pub fn to_json(&self) -> Json {
        let min = match &self.minimized {
            None => Json::Null,
            Some(m) => Json::obj([
                ("nodes", m.nodes.into()),
                ("src", m.src.into()),
                (
                    "edges",
                    Json::arr(m.edges.iter().map(|&(s, d, w)| {
                        Json::arr([Json::from(s), Json::from(d), Json::from(w)])
                    })),
                ),
            ]),
        };
        Json::obj([
            ("case", self.case.into()),
            ("generator", self.generator.as_str().into()),
            ("algo", self.algo.as_str().into()),
            ("exec", self.exec.as_str().into()),
            ("nodes", self.nodes.into()),
            ("edges", self.edges.into()),
            ("src", self.src.into()),
            (
                "error",
                match &self.error {
                    Some(e) => e.as_str().into(),
                    None => Json::Null,
                },
            ),
            (
                "mismatched_at",
                Json::arr(self.mismatched_at.iter().map(|&i| Json::from(i))),
            ),
            ("minimized", min),
        ])
    }
}

/// The outcome of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Corpus graphs generated.
    pub cases: usize,
    /// Individual GPU runs compared against an oracle.
    pub runs: u64,
    /// Shuffled session batches executed.
    pub batches: u64,
    /// Multi-device sharded runs compared against an oracle (also
    /// counted in `runs`).
    pub sharded_runs: u64,
    /// Confirmed divergences (empty on a healthy tree).
    pub divergences: Vec<Divergence>,
    /// Launches the race detector analyzed (0 when detection was off).
    pub race_launches_checked: u64,
    /// Benign racing words the detector saw.
    pub race_benign_words: u64,
    /// Harmful racing words the detector saw (expected 0).
    pub race_harmful_words: u64,
}

impl FuzzReport {
    /// True when no divergence and no harmful race was found.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.race_harmful_words == 0
    }

    /// This report as a JSON object (the CI artifact).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cases", self.cases.into()),
            ("runs", self.runs.into()),
            ("batches", self.batches.into()),
            ("sharded_runs", self.sharded_runs.into()),
            ("clean", Json::Bool(self.is_clean())),
            ("race_launches_checked", self.race_launches_checked.into()),
            ("race_benign_words", self.race_benign_words.into()),
            ("race_harmful_words", self.race_harmful_words.into()),
            (
                "divergences",
                Json::arr(self.divergences.iter().map(Divergence::to_json)),
            ),
        ])
    }
}

/// Differential runs compare values against the CPU reference, so by
/// default they use the fast-functional fidelity (no timing model, no
/// race bookkeeping). `--race-detect` opts back into the fully timed
/// engine with per-launch race analysis.
fn device_config(fidelity: SimFidelity, engine: ExecEngine) -> DeviceConfig {
    DeviceConfig::tesla_c2070()
        .with_engine(engine)
        .with_fidelity(fidelity)
}

/// One GPU run of (`alg`, `exec`) on a fresh device; returns the value
/// array.
fn gpu_values(
    g: &CsrGraph,
    src: NodeId,
    alg: Alg,
    exec: Exec,
    fidelity: SimFidelity,
    engine: ExecEngine,
    race: Option<&mut FuzzReport>,
) -> Result<Vec<u32>, CoreError> {
    let mut session = Session::with_device(g, device_config(fidelity, engine))?;
    if matches!(exec, Exec::BottomUp) {
        session.enable_bottom_up();
    }
    let r = session.run(alg.query(src), &exec.options())?;
    if let Some(report) = race {
        let s = session.device().race_summary();
        report.race_launches_checked += s.launches_checked;
        report.race_benign_words += s.benign_words;
        report.race_harmful_words += s.harmful_words;
    }
    Ok(r.values)
}

/// One multi-device run of `alg` split across `shards` simulated
/// devices; returns the stitched global value array. Besides the value
/// comparison the caller makes, this checks the run's own invariants:
/// the time-accounting identity must hold exactly on every fuzz case.
#[allow(clippy::too_many_arguments)]
fn sharded_values(
    g: &CsrGraph,
    src: NodeId,
    alg: Alg,
    shards: usize,
    strategy: agg_graph::PartitionStrategy,
    fidelity: SimFidelity,
    engine: ExecEngine,
    race: Option<&mut FuzzReport>,
) -> Result<Vec<u32>, CoreError> {
    let mut sg = ShardedGraph::with_config(
        g,
        shards,
        strategy,
        device_config(fidelity, engine),
        Interconnect::pcie(),
    )?;
    let r = sg.run(alg.query(src), &RunOptions::default())?;
    if r.accounting_gap() != 0.0 {
        return Err(CoreError::InvalidQuery {
            detail: format!(
                "time-accounting identity violated: gap {} ns (total {}, setup {}, \
                 compute {}, exchange {}, teardown {})",
                r.accounting_gap(),
                r.total_ns,
                r.setup_ns,
                r.compute_ns,
                r.exchange_ns,
                r.teardown_ns
            ),
        });
    }
    if let Some(report) = race {
        let s = sg.race_summary();
        report.race_launches_checked += s.launches_checked;
        report.race_benign_words += s.benign_words;
        report.race_harmful_words += s.harmful_words;
    }
    Ok(r.values)
}

/// Positions where two value arrays differ (capped for reporting).
pub(crate) fn mismatches(expected: &[u32], actual: &[u32]) -> Vec<usize> {
    if expected.len() != actual.len() {
        return vec![usize::MAX];
    }
    expected
        .iter()
        .zip(actual)
        .enumerate()
        .filter(|(_, (e, a))| e != a)
        .map(|(i, _)| i)
        .take(16)
        .collect()
}

/// Delta-debugs a failing `(graph, src)` against `diverges`, which must
/// return `true` while the bug still reproduces. Shrinks the edge list
/// with a halving pass, then truncates unreferenced tail nodes.
pub fn minimize(
    graph: &CsrGraph,
    src: NodeId,
    diverges: &mut dyn FnMut(&CsrGraph, NodeId) -> bool,
) -> Minimized {
    let weighted = graph.is_weighted();
    let mut edges: Vec<(NodeId, NodeId, u32)> = graph.edges().collect();
    let mut nodes = graph.node_count();
    let rebuild = |edges: &[(NodeId, NodeId, u32)], nodes: usize| -> CsrGraph {
        if weighted {
            GraphBuilder::from_weighted_edges(nodes, edges).expect("minimizer rebuild")
        } else {
            let plain: Vec<(NodeId, NodeId)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
            GraphBuilder::from_edges(nodes, &plain).expect("minimizer rebuild")
        }
    };
    // Edge shrink: try dropping chunks, halving the chunk size.
    let mut chunk = edges.len().div_ceil(2).max(1);
    while chunk >= 1 && !edges.is_empty() {
        let mut i = 0;
        while i < edges.len() {
            let hi = (i + chunk).min(edges.len());
            let mut cand = edges.clone();
            cand.drain(i..hi);
            if diverges(&rebuild(&cand, nodes), src) {
                edges = cand;
            } else {
                i = hi;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    // Node truncation: keep the source and every referenced node.
    let needed = edges
        .iter()
        .flat_map(|&(s, d, _)| [s, d])
        .chain([src])
        .max()
        .map_or(1, |m| m as usize + 1);
    if needed < nodes && diverges(&rebuild(&edges, needed), src) {
        nodes = needed;
    }
    Minimized { nodes, src, edges }
}

/// Runs the full differential matrix over the corpus. Deterministic in
/// `cfg`; returns every confirmed (and minimized) divergence rather than
/// panicking, so callers can write artifacts before failing.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        cases: cfg.cases,
        ..FuzzReport::default()
    };
    let mut batch_rng = StdRng::seed_from_u64(cfg.seed ^ 0xBA7C4);
    for case in 0..cfg.cases {
        let CaseGraph {
            graph,
            generator,
            src,
        } = case_graph_weighted(cfg.seed, case, cfg.max_weight);
        // Static/adaptive/bottom-up matrix per algorithm. CC has no
        // ordered formulation, so it runs the unordered statics only.
        let mut jobs: Vec<(Alg, Exec)> = Vec::new();
        for alg in [Alg::Bfs, Alg::Sssp] {
            jobs.push((alg, Exec::Adaptive));
            for v in Variant::ALL {
                jobs.push((alg, Exec::Static(v)));
            }
        }
        jobs.push((Alg::Bfs, Exec::BottomUp));
        jobs.push((Alg::Cc, Exec::Adaptive));
        for v in Variant::UNORDERED {
            jobs.push((Alg::Cc, Exec::Static(v)));
        }
        for (alg, exec) in jobs {
            let expected = alg.oracle(&graph, src);
            report.runs += 1;
            match gpu_values(&graph, src, alg, exec, cfg.effective_fidelity(), cfg.engine, Some(&mut report)) {
                Ok(actual) if actual == expected => {}
                Ok(actual) => {
                    let minimized = minimize(&graph, src, &mut |g, s| {
                        matches!(
                            gpu_values(g, s, alg, exec, SimFidelity::Functional, cfg.engine, None),
                            Ok(v) if v != alg.oracle(g, s)
                        )
                    });
                    report.divergences.push(Divergence {
                        case,
                        generator: generator.into(),
                        algo: alg.name().into(),
                        exec: exec.name(),
                        nodes: graph.node_count(),
                        edges: graph.edge_count(),
                        src,
                        error: None,
                        mismatched_at: mismatches(&expected, &actual),
                        minimized: Some(minimized),
                    });
                }
                Err(e) => report.divergences.push(Divergence {
                    case,
                    generator: generator.into(),
                    algo: alg.name().into(),
                    exec: exec.name(),
                    nodes: graph.node_count(),
                    edges: graph.edge_count(),
                    src,
                    error: Some(e.to_string()),
                    mismatched_at: Vec::new(),
                    minimized: None,
                }),
            }
        }
        // Multi-device sweep: the same queries sharded across simulated
        // devices with frontier exchange must still match the serial
        // oracle bit-for-bit — partitioning is not allowed to perturb
        // results. Cases alternate between the blind contiguous split
        // and the relabeling clustered partitioner so both see the full
        // adversarial corpus.
        for &k in &cfg.shard_counts {
            for alg in [Alg::Bfs, Alg::Sssp, Alg::Cc] {
                let strategy = if (case + k) % 2 == 0 {
                    agg_graph::PartitionStrategy::Contiguous1D
                } else {
                    agg_graph::PartitionStrategy::ClusteredContiguous
                };
                let expected = alg.oracle(&graph, src);
                report.runs += 1;
                report.sharded_runs += 1;
                match sharded_values(
                    &graph,
                    src,
                    alg,
                    k,
                    strategy,
                    cfg.effective_fidelity(),
                    cfg.engine,
                    Some(&mut report),
                ) {
                    Ok(actual) if actual == expected => {}
                    Ok(actual) => {
                        let minimized = minimize(&graph, src, &mut |g, s| {
                            matches!(
                                sharded_values(g, s, alg, k, strategy, SimFidelity::Functional, cfg.engine, None),
                                Ok(v) if v != alg.oracle(g, s)
                            )
                        });
                        report.divergences.push(Divergence {
                            case,
                            generator: generator.into(),
                            algo: alg.name().into(),
                            exec: format!("sharded[{k},{}]", strategy.name()),
                            nodes: graph.node_count(),
                            edges: graph.edge_count(),
                            src,
                            error: None,
                            mismatched_at: mismatches(&expected, &actual),
                            minimized: Some(minimized),
                        });
                    }
                    Err(e) => report.divergences.push(Divergence {
                        case,
                        generator: generator.into(),
                        algo: alg.name().into(),
                        exec: format!("sharded[{k},{}]", strategy.name()),
                        nodes: graph.node_count(),
                        edges: graph.edge_count(),
                        src,
                        error: Some(e.to_string()),
                        mismatched_at: Vec::new(),
                        minimized: None,
                    }),
                }
            }
        }
        // Shuffled Session batch: same queries, scheduler-chosen order,
        // pooled state reuse — results must not depend on any of it.
        if cfg.batch_period > 0 && case % cfg.batch_period == cfg.batch_period - 1 {
            run_shuffled_batch(cfg, case, generator, &graph, &mut batch_rng, &mut report);
        }
    }
    report
}

/// Builds a shuffled query batch for `graph`, runs it through a
/// [`Session`], and checks every per-query result against its oracle.
fn run_shuffled_batch(
    cfg: &FuzzConfig,
    case: usize,
    generator: &'static str,
    graph: &CsrGraph,
    rng: &mut StdRng,
    report: &mut FuzzReport,
) {
    let n = graph.node_count() as u32;
    if n == 0 {
        return;
    }
    let mut queries: Vec<Query> = Vec::new();
    for _ in 0..rng.gen_range(2usize..=4) {
        queries.push(Query::Bfs {
            src: rng.gen_range(0..n),
        });
        queries.push(Query::Sssp {
            src: rng.gen_range(0..n),
        });
    }
    queries.push(Query::Cc);
    // Fisher–Yates with the harness rng (the shim has no shuffle).
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.gen_range(0..=i));
    }
    let outcome = Session::with_device(graph, device_config(cfg.effective_fidelity(), cfg.engine)).and_then(|mut s| {
        let b = s.run_batch(&queries, &RunOptions::default())?;
        let races = s.device().race_summary().clone();
        Ok((b, races))
    });
    report.batches += 1;
    match outcome {
        Ok((batch, races)) => {
            report.race_launches_checked += races.launches_checked;
            report.race_benign_words += races.benign_words;
            report.race_harmful_words += races.harmful_words;
            for (i, q) in batch.queries.iter().enumerate() {
                let (alg, src) = match q.query {
                    Query::Bfs { src } => (Alg::Bfs, src),
                    Query::Sssp { src } => (Alg::Sssp, src),
                    Query::Cc => (Alg::Cc, 0),
                    Query::PageRank { .. } => continue,
                };
                let expected = alg.oracle(graph, src);
                report.runs += 1;
                if q.report.values != expected {
                    report.divergences.push(Divergence {
                        case,
                        generator: generator.into(),
                        algo: alg.name().into(),
                        exec: format!("batch[{i}]"),
                        nodes: graph.node_count(),
                        edges: graph.edge_count(),
                        src,
                        error: None,
                        mismatched_at: mismatches(&expected, &q.report.values),
                        minimized: None,
                    });
                }
            }
        }
        Err(e) => report.divergences.push(Divergence {
            case,
            generator: generator.into(),
            algo: "batch".into(),
            exec: "batch".into(),
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            src: 0,
            error: Some(e.to_string()),
            mismatched_at: Vec::new(),
            minimized: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_covers_all_generators() {
        let mut seen = [false; 6];
        for case in 0..12 {
            let a = case_graph(7, case);
            let b = case_graph(7, case);
            assert_eq!(
                a.graph.edges().collect::<Vec<_>>(),
                b.graph.edges().collect::<Vec<_>>(),
                "case {case} not deterministic"
            );
            assert_eq!(a.src, b.src);
            let gi = GENERATORS.iter().position(|&g| g == a.generator).unwrap();
            seen[gi] = true;
            assert!(a.graph.is_weighted());
            assert!((a.src as usize) < a.graph.node_count());
        }
        assert!(seen.iter().all(|&s| s), "some generator never used");
    }

    #[test]
    fn corpus_exhibits_degenerate_features() {
        let (mut self_loops, mut duplicates, mut isolated) = (false, false, false);
        for case in 0..48 {
            let g = case_graph(3, case).graph;
            let mut edges: Vec<(u32, u32)> = g.edges().map(|(s, d, _)| (s, d)).collect();
            self_loops |= edges.iter().any(|&(s, d)| s == d);
            let before = edges.len();
            edges.sort_unstable();
            edges.dedup();
            duplicates |= edges.len() < before;
            isolated |= (0..g.node_count() as u32)
                .any(|v| g.neighbors(v).next().is_none() && edges.iter().all(|&(_, d)| d != v));
        }
        assert!(self_loops, "corpus never produced a self-loop");
        assert!(duplicates, "corpus never produced duplicate edges");
        assert!(isolated, "corpus never produced an isolated node");
    }

    #[test]
    fn minimizer_shrinks_to_the_culprit_edge() {
        // Synthetic bug: "divergence" iff the graph contains edge 2->3.
        let g = GraphBuilder::from_weighted_edges(
            8,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 7, 1),
            ],
        )
        .unwrap();
        let mut checks = 0;
        let m = minimize(&g, 0, &mut |g, _| {
            checks += 1;
            g.edges().any(|(s, d, _)| (s, d) == (2, 3))
        });
        assert_eq!(m.edges, vec![(2, 3, 1)]);
        assert_eq!(m.nodes, 4, "tail nodes past the culprit kept");
        assert!(checks > 0);
    }

    /// The adaptive runtime on a fuzz-corpus sample under both execution
    /// engines at full timed fidelity: the value arrays AND the modeled
    /// device clock must match exactly for all four algorithms. This is
    /// the end-to-end leg of the bytecode equivalence suite — it covers
    /// the kernels (PageRank, CC, adaptive variant switching) the
    /// kernel-level matrix in `agg-kernels` does not reach.
    #[test]
    fn adaptive_runs_are_engine_equivalent_on_corpus_sample() {
        use agg_gpu_sim::ExecEngine;
        for case in 0..4 {
            let cg = case_graph(0xE9E, case);
            for query in [
                Query::Bfs { src: cg.src },
                Query::Sssp { src: cg.src },
                Query::Cc,
                Query::pagerank(),
            ] {
                let mut outcomes = Vec::new();
                for engine in [ExecEngine::Interpreter, ExecEngine::Bytecode] {
                    let cfg = DeviceConfig::tesla_c2070().with_engine(engine);
                    let mut session = Session::with_device(&cg.graph, cfg).unwrap();
                    let r = session.run(query, &RunOptions::default()).unwrap();
                    outcomes.push((r.values, session.device().elapsed_ns()));
                }
                let (bc, interp) = (outcomes.pop().unwrap(), outcomes.pop().unwrap());
                assert_eq!(
                    interp.0, bc.0,
                    "case {case} {query:?}: values diverge between engines"
                );
                assert_eq!(
                    interp.1, bc.1,
                    "case {case} {query:?}: modeled time diverges between engines"
                );
            }
        }
    }

    #[test]
    fn tiny_fuzz_run_is_clean_and_counts_work() {
        let mut cfg = FuzzConfig::new(6, 0xD1FF);
        cfg.batch_period = 3;
        cfg.race_detect = true; // opt into the timed+races fidelity
        let r = fuzz(&cfg);
        assert!(r.is_clean(), "divergences: {:?}", r.divergences);
        assert_eq!(r.cases, 6);
        assert_eq!(r.batches, 2);
        // 3 algorithms x 2 shard counts on every case.
        assert_eq!(r.sharded_runs, 6 * 6);
        // 24 matrix runs per case (9 BFS + 9 SSSP + bottom-up + 5 CC)
        // plus the sharded sweep and the shuffled-batch queries.
        assert!(r.runs >= 6 * 24 + 6 * 6, "runs {}", r.runs);
        assert!(r.race_launches_checked > 0);
        assert_eq!(r.race_harmful_words, 0);
        let s = r.to_json().render();
        assert!(s.contains("\"clean\":true"), "{s}");
        assert!(s.contains("\"divergences\":[]"), "{s}");
    }
}
