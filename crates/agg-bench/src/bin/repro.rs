//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! repro <command> [--scale tiny|small|paper] [--seed N] [--out DIR]
//!
//! commands:
//!   table1           dataset characterization (paper Table 1)
//!   fig1             outdegree distributions (paper Figure 1)
//!   fig2             working-set size per iteration, unordered SSSP (Figure 2)
//!   table2           BFS speedups, 8 variants x 6 datasets (Table 2)
//!   table3           SSSP speedups, 8 variants x 6 datasets (Table 3)
//!   fig11            decision space rendering (Figure 11)
//!   fig12            processing speed of the best variant (Figure 12)
//!   fig13            SSSP execution time vs T3 (Figure 13)
//!   adaptive         adaptive vs best static (Section VII.C)
//!   sampling         inspector sampling-period sweep (Section VI.E)
//!   t2               T_QU vs B_QU per-iteration crossover (Section VII.B)
//!   ablation-queue   atomic vs scan-based queue generation (X1)
//!   ablation-launch  launch-overhead sensitivity on CO-road (X2)
//!   table-cc         connected-components speedups (extension)
//!   ablation-vwarp   virtual-warp mapping width sweep (extension)
//!   hybrid           CPU/GPU hybrid execution vs pure GPU (extension)
//!   table-pagerank   PageRank-delta speedups (extension)
//!   ablation-relabel BFS-order node renumbering vs coalescing (extension)
//!   stats            per-dataset divergence / traffic / atomics profile
//!   ablation-inspector  whole-graph vs working-set degree monitoring (VI.E)
//!   dump-kernels     write every kernel as pseudo-CUDA under --out
//!   paper-spot       paper-size spot checks (adaptive BFS/SSSP vs CPU)
//!   ablation-bottomup direction-optimizing BFS vs pure top-down (extension)
//!   telemetry        per-iteration trace + per-kernel profile capture
//!   batch            batched multi-query sessions: sequential vs parallel
//!                    vs one-by-one, queries/sec (--json PATH writes the
//!                    per-query telemetry artifact)
//!   differential     differential fuzzing: random graphs from all six
//!                    generators, every static variant + adaptive +
//!                    shuffled Session batches + sharded execution,
//!                    compared bit-for-bit against the CPU oracles
//!                    (--cases N, --race-detect; exits nonzero on
//!                    divergence; --json PATH writes the divergence
//!                    artifact)
//!   simbench         simulator speed: the differential suite wall-clocked
//!                    under the interpreter vs the bytecode engine (timed
//!                    and fast-functional legs); writes BENCH_sim.json at
//!                    the repository root (--cases N, --seed S)
//!   shard            multi-device sharded execution: BFS/SSSP scaling
//!                    table over 1/2/4/8 simulated devices (total and
//!                    exchange time, edge cut, speedup vs one device;
//!                    every run checked bit-for-bit against the
//!                    single-device result; --shards N caps the sweep,
//!                    --json PATH writes the per-run report artifact)
//!   serve            throughput serving: a deterministic open-loop
//!                    Poisson trace (mixed algorithms over two hosted
//!                    graphs) replayed through the agg-serve admission /
//!                    micro-batch / epoch-cache pipeline in virtual time,
//!                    cached vs uncached, with every cache hit verified
//!                    bit-identical to uncached recomputation; writes
//!                    BENCH_serve.json at the repository root
//!                    (--queries N, --rate QPS; --json PATH writes the
//!                    per-query latency artifact)
//!   dynamic          dynamic graphs: the incremental-repair identity gate
//!                    (random insert/delete batches over the fuzz corpus,
//!                    CPU incremental oracle + GPU warm repair vs
//!                    from-scratch recompute, ddmin on divergence) plus
//!                    the recompute-vs-incremental crossover sweep;
//!                    writes BENCH_dynamic.json at the repository root
//!                    (--cases N caps the identity corpus; --json PATH
//!                    writes the full artifact; exits nonzero on any
//!                    divergence)
//!   all              everything above (except telemetry, differential,
//!                    and dynamic)
//!
//! telemetry flags (usable with any command; `telemetry` runs only these):
//!   --trace-json PATH  write full run telemetry (per-iteration trace with
//!                      variant/region/exact + estimated ws size/timings,
//!                      always-on metrics, per-kernel profile) as JSON
//!   --profile          print the per-kernel profile table (compute vs
//!                      memory time, coalescing, occupancy)
//!
//! differential flags:
//!   --cases N          corpus size for `differential` (default 256)
//!   --race-detect      run every launch under the simulator's data-race
//!                      detector and report its counters
//!
//! serve flags:
//!   --queries N        query arrivals in the `serve` trace (default 600)
//!   --rate QPS         offered load of the `serve` trace in queries per
//!                      second of virtual time (default 2000)
//!
//! shard flags:
//!   --shards N         largest device count in the `shard` sweep
//!   --datasets A,B     restrict the `shard` sweep to the named datasets
//!   --partition S      partitioning for the `shard` sweep
//!                      (contiguous|degree|clustered; default degree)
//!                      (default 8; the sweep runs 1, 2, 4, 8 up to N)
//! ```
//!
//! Results are printed and written as CSV under `--out` (default
//! `results/`). Default scale is `small`; see EXPERIMENTS.md for the
//! scale-by-scale comparison against the paper's reported numbers.

use agg_bench::runner::{cpu_baseline_ns, gpu_run, speedup_table};
use agg_bench::tables::{format_table, write_csv};
use agg_bench::workloads::{load, load_all, DEFAULT_SEED};
use agg_core::{
    decision, AdaptiveConfig, Algo, CensusMode, Query, RunOptions, Session, ShardedGraph, Strategy,
};
use agg_gpu_sim::prelude::*;
use agg_gpu_sim::Json;
use agg_graph::{stats, Dataset, GraphStats, Scale};
use agg_kernels::{GpuKernels, Variant};
use std::path::PathBuf;
use std::time::Instant;

struct Cli {
    command: String,
    scale: Scale,
    seed: u64,
    out: PathBuf,
    trace_json: Option<PathBuf>,
    json: Option<PathBuf>,
    profile: bool,
    cases: usize,
    race_detect: bool,
    shards: usize,
    datasets: Option<Vec<Dataset>>,
    partition: agg_graph::PartitionStrategy,
    queries: usize,
    rate_qps: f64,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "all".to_string());
    let mut scale = Scale::Small;
    let mut seed = DEFAULT_SEED;
    let mut out = PathBuf::from("results");
    let mut trace_json = None;
    let mut json = None;
    let mut profile = false;
    let mut cases = 256usize;
    let mut race_detect = false;
    let mut shards = 8usize;
    let mut datasets = None;
    let mut partition = agg_graph::PartitionStrategy::DegreeBalanced;
    let mut queries = 600usize;
    let mut rate_qps = 2000.0f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--scale needs a value (tiny|small|paper)"));
                scale = Scale::parse(&v).unwrap_or_else(|| die(&format!("unknown scale '{v}'")));
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| die("--seed needs a value"));
                seed = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--seed needs a u64, got '{v}'")));
            }
            "--out" => {
                out = PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--out needs a directory")),
                )
            }
            "--trace-json" => {
                trace_json = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--trace-json needs a path")),
                ));
            }
            "--json" => {
                json = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--json needs a path")),
                ));
            }
            "--profile" => profile = true,
            "--cases" => {
                let v = args.next().unwrap_or_else(|| die("--cases needs a value"));
                cases = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--cases needs a usize, got '{v}'")));
            }
            "--race-detect" => race_detect = true,
            "--shards" => {
                let v = args.next().unwrap_or_else(|| die("--shards needs a value"));
                shards =
                    v.parse().ok().filter(|&s| s >= 1).unwrap_or_else(|| {
                        die(&format!("--shards needs a positive count, got '{v}'"))
                    });
            }
            "--datasets" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--datasets needs a comma-separated list"));
                let parsed: Vec<Dataset> = v
                    .split(',')
                    .map(|name| {
                        Dataset::parse(name.trim())
                            .unwrap_or_else(|| die(&format!("unknown dataset '{name}'")))
                    })
                    .collect();
                datasets = Some(parsed);
            }
            "--partition" => {
                let v = args.next().unwrap_or_else(|| {
                    die("--partition needs a value (contiguous|degree|clustered)")
                });
                partition = match v.as_str() {
                    "contiguous" => agg_graph::PartitionStrategy::Contiguous1D,
                    "degree" => agg_graph::PartitionStrategy::DegreeBalanced,
                    "clustered" => agg_graph::PartitionStrategy::ClusteredContiguous,
                    _ => die(&format!("unknown partition strategy '{v}'")),
                };
            }
            "--queries" => {
                let v = args.next().unwrap_or_else(|| die("--queries needs a value"));
                queries = v.parse().ok().filter(|&q| q >= 1).unwrap_or_else(|| {
                    die(&format!("--queries needs a positive count, got '{v}'"))
                });
            }
            "--rate" => {
                let v = args.next().unwrap_or_else(|| die("--rate needs a value"));
                rate_qps = v
                    .parse()
                    .ok()
                    .filter(|&r: &f64| r.is_finite() && r > 0.0)
                    .unwrap_or_else(|| die(&format!("--rate needs a positive qps, got '{v}'")));
            }
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    Cli {
        command,
        scale,
        seed,
        out,
        trace_json,
        json,
        profile,
        cases,
        race_detect,
        shards,
        datasets,
        partition,
        queries,
        rate_qps,
    }
}

fn main() {
    let cli = parse_cli();
    if cfg!(debug_assertions) {
        eprintln!("note: debug build — simulation is ~10x slower; use --release for full runs");
    }
    let t0 = Instant::now();
    match cli.command.as_str() {
        "table1" => table1(&cli),
        "fig1" => fig1(&cli),
        "fig2" => fig2(&cli),
        "table2" => speedups(&cli, Algo::Bfs),
        "table3" => speedups(&cli, Algo::Sssp),
        "fig11" => fig11(&cli),
        "fig12" => fig12(&cli),
        "fig13" => fig13(&cli),
        "adaptive" => adaptive(&cli),
        "sampling" => sampling(&cli),
        "t2" => t2_crossover(&cli),
        "ablation-queue" => ablation_queue(&cli),
        "ablation-launch" => ablation_launch(&cli),
        "table-cc" => table_cc(&cli),
        "ablation-vwarp" => ablation_vwarp(&cli),
        "hybrid" => hybrid(&cli),
        "table-pagerank" => table_pagerank(&cli),
        "ablation-relabel" => ablation_relabel(&cli),
        "stats" => stats_profile(&cli),
        "ablation-inspector" => ablation_inspector(&cli),
        "dump-kernels" => dump_kernels(&cli),
        "paper-spot" => paper_spot(&cli),
        "ablation-bottomup" => ablation_bottomup(&cli),
        "batch" => batch(&cli),
        "differential" => differential(&cli),
        "simbench" => simbench(&cli),
        "shard" => shard(&cli),
        "serve" => serve(&cli),
        "dynamic" => dynamic(&cli),
        "telemetry" => {} // the flag handling below does all the work
        "all" => {
            table1(&cli);
            fig1(&cli);
            fig2(&cli);
            speedups(&cli, Algo::Bfs);
            speedups(&cli, Algo::Sssp);
            fig11(&cli);
            fig12(&cli);
            fig13(&cli);
            adaptive(&cli);
            sampling(&cli);
            t2_crossover(&cli);
            ablation_queue(&cli);
            ablation_launch(&cli);
            table_cc(&cli);
            ablation_vwarp(&cli);
            hybrid(&cli);
            table_pagerank(&cli);
            ablation_relabel(&cli);
            stats_profile(&cli);
            ablation_inspector(&cli);
            ablation_bottomup(&cli);
            batch(&cli);
            shard(&cli);
            serve(&cli);
            dump_kernels(&cli);
        }
        other => {
            eprintln!("unknown command '{other}'; see the module docs for the list");
            std::process::exit(2);
        }
    }
    // Telemetry capture piggybacks on any command (and is all the bare
    // `telemetry` command does).
    if cli.trace_json.is_some() || cli.profile || cli.command == "telemetry" {
        telemetry(&cli);
    }
    eprintln!("\n[repro] finished in {:.1}s", t0.elapsed().as_secs_f64());
}

// ---------------------------------------------------------------- Telemetry

/// Runs the adaptive runtime with full instrumentation (per-iteration
/// trace with an exact census, always-on metrics, per-kernel profiles)
/// and serializes/prints the result per `--trace-json` / `--profile`.
fn telemetry(cli: &Cli) {
    banner("Telemetry: per-iteration trace + per-kernel launch profiles (adaptive)");
    let workloads = load_all(cli.scale, cli.seed);
    // An exact census every iteration: the trace then carries both the
    // exact ws size and the (possibly stale) estimate the decision
    // maker consumed, so sampling error is measurable offline.
    let opts = RunOptions::builder()
        .census(CensusMode::Every)
        .trace()
        .build();
    let mut runs = Vec::new();
    let mut profile_rows = Vec::new();
    for w in &workloads {
        for algo in [Algo::Bfs, Algo::Sssp] {
            let r = gpu_run(w, algo, &opts).expect("telemetry run");
            println!(
                "{} {:?}: {} iterations, {} switches, {} census launches, \
                 inspector {:.1}% of iteration time",
                w.dataset.name(),
                algo,
                r.iterations,
                r.switches,
                r.metrics.census_launches,
                100.0 * r.metrics.inspector_ns_total / r.metrics.iter_ns_total.max(1.0),
            );
            if cli.profile {
                for p in r.profile.kernels() {
                    profile_rows.push(vec![
                        w.dataset.name().to_string(),
                        format!("{algo:?}"),
                        p.kernel.clone(),
                        p.launches.to_string(),
                        format!("{:.1}", p.time_ns / 1e3),
                        format!("{:.1}", p.compute_ns / 1e3),
                        format!("{:.1}", p.mem_ns / 1e3),
                        format!("{:.2}", p.coalescing_efficiency()),
                        format!("{:.2}", p.occupancy_fraction),
                    ]);
                }
            }
            runs.push(Json::obj([
                ("dataset", w.dataset.name().into()),
                ("algo", format!("{algo:?}").into()),
                ("report", r.to_json()),
            ]));
        }
    }
    if cli.profile {
        let header: Vec<String> = [
            "network",
            "algo",
            "kernel",
            "launches",
            "time_us",
            "compute_us",
            "mem_us",
            "coalesce",
            "occupancy",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        println!("\n{}", format_table(&header, &profile_rows, |_| None));
        println!("(compute_us = issue + exposed-stall time; mem_us = bytes / bandwidth;");
        println!(" coalesce = 1 / memory transactions per warp-level access)");
    }
    if let Some(path) = &cli.trace_json {
        let doc = Json::obj([
            ("scale", format!("{:?}", cli.scale).into()),
            ("seed", cli.seed.into()),
            ("runs", Json::Arr(runs)),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create --trace-json directory");
        }
        std::fs::write(path, doc.render_pretty()).expect("write --trace-json file");
        println!("\n[json] {}", path.display());
    }
}

// ------------------------------------------------------------------ Batch

/// Batched multi-query sessions (the `Session` layer): a mixed
/// BFS/SSSP/CC/PageRank batch per dataset, one-by-one on fresh uploads vs
/// a sequential session vs a parallel session, reported as queries per
/// second of modeled time. `--json PATH` writes the per-query telemetry
/// artifact.
fn batch(cli: &Cli) {
    banner("Batched multi-query sessions: one-by-one vs Session (sequential | parallel)");
    const WORKERS: usize = 4;
    let workloads = load_all(cli.scale, cli.seed);
    let header: Vec<String> = [
        "network",
        "queries",
        "one_by_one_ms",
        "session_ms",
        "par_makespan_ms",
        "session_qps",
        "parallel_qps",
        "pool_hits",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut docs = Vec::new();
    let opts = RunOptions::default();
    for w in &workloads {
        let n = w.graph.node_count() as u32;
        let queries: Vec<Query> = vec![
            Query::Bfs { src: w.src },
            Query::Bfs { src: n / 2 },
            Query::Bfs {
                src: n.saturating_sub(1),
            },
            Query::Sssp { src: w.src },
            Query::Sssp { src: n / 3 },
            Query::Cc,
            Query::pagerank(),
        ];
        // Baseline: each query pays a fresh upload and allocation.
        let mut one_by_one_ns = 0.0;
        for q in &queries {
            let mut session = Session::new(&w.graph).expect("upload");
            let r = session.run(*q, &opts).expect("single run");
            one_by_one_ns += r.total_ns;
        }
        let mut seq = Session::new(&w.graph).expect("session");
        let bs = seq.run_batch(&queries, &opts).expect("sequential batch");
        let mut par =
            Session::parallel(&w.graph, DeviceConfig::tesla_c2070(), WORKERS).expect("session");
        let bp = par.run_batch(&queries, &opts).expect("parallel batch");
        for (a, b) in bs.queries.iter().zip(&bp.queries) {
            assert_eq!(
                a.report.values,
                b.report.values,
                "{} query #{}: parallel != sequential",
                w.dataset.name(),
                a.index
            );
        }
        rows.push(vec![
            w.dataset.name().to_string(),
            queries.len().to_string(),
            format!("{:.2}", one_by_one_ns / 1e6),
            format!("{:.2}", bs.total_ms()),
            format!("{:.2}", bp.makespan_ns / 1e6),
            format!("{:.0}", bs.queries_per_sec()),
            format!("{:.0}", bp.queries_per_sec()),
            bs.pool.hits.to_string(),
        ]);
        docs.push(Json::obj([
            ("dataset", w.dataset.name().into()),
            ("one_by_one_ns", one_by_one_ns.into()),
            ("sequential", bs.to_json()),
            ("parallel", bp.to_json()),
        ]));
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!(
        "(queries/sec of modeled serving time = critical path; the session amortizes the graph upload and\n\
         \u{20}reuses pooled device state; par_makespan = critical path across {WORKERS} workers,\n\
         \u{20}one simulated device each, results bit-identical to sequential)"
    );
    let path = write_csv(&cli.out, "batch", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
    if let Some(path) = &cli.json {
        let doc = Json::obj([
            ("scale", format!("{:?}", cli.scale).into()),
            ("seed", cli.seed.into()),
            ("workers", WORKERS.into()),
            ("batches", Json::Arr(docs)),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create --json directory");
        }
        std::fs::write(path, doc.render_pretty()).expect("write --json file");
        println!("[json] {}", path.display());
    }
}

// ------------------------------------------------------------ Differential

/// Bounded differential fuzzing run (the CI `differential-smoke` job and
/// the manual bug hunt). Deterministic in (`--cases`, `--seed`); writes
/// the divergence artifact to `--json` (or `--out`/differential.json)
/// and exits nonzero when any divergence or harmful race is found.
fn differential(cli: &Cli) {
    banner("Differential fuzzing: GPU variants + adaptive + batches vs CPU oracles");
    let mut cfg = agg_bench::FuzzConfig::new(cli.cases, cli.seed);
    cfg.race_detect = cli.race_detect;
    println!(
        "corpus: {} graphs (seed {}), race detection {}",
        cfg.cases,
        cfg.seed,
        if cfg.race_detect { "on" } else { "off" }
    );
    let report = agg_bench::fuzz(&cfg);
    println!(
        "{} runs over {} graphs, {} shuffled batches, {} sharded runs: {} divergence(s)",
        report.runs,
        report.cases,
        report.batches,
        report.sharded_runs,
        report.divergences.len()
    );
    if cli.race_detect {
        println!(
            "race detector: {} launches checked, {} benign word(s), {} harmful word(s)",
            report.race_launches_checked, report.race_benign_words, report.race_harmful_words
        );
    }
    for d in &report.divergences {
        println!(
            "  DIVERGED case {} ({}, {} nodes / {} edges): {}/{} src {}{}",
            d.case,
            d.generator,
            d.nodes,
            d.edges,
            d.algo,
            d.exec,
            d.src,
            d.error
                .as_ref()
                .map(|e| format!(" — error: {e}"))
                .unwrap_or_default()
        );
        if let Some(m) = &d.minimized {
            println!(
                "    minimized: {} nodes, {} edge(s), src {}: {:?}",
                m.nodes,
                m.edges.len(),
                m.src,
                m.edges
            );
        }
    }
    let path = cli
        .json
        .clone()
        .unwrap_or_else(|| cli.out.join("differential.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create artifact directory");
    }
    let doc = Json::obj([("seed", cli.seed.into()), ("report", report.to_json())]);
    std::fs::write(&path, doc.render_pretty()).expect("write differential artifact");
    println!("[json] {}", path.display());
    if !report.is_clean() {
        eprintln!("differential: FAILED (see artifact above)");
        std::process::exit(1);
    }
    println!("differential: clean");
}

// --------------------------------------------------------------- Simbench

/// Simulator speed benchmark: the repro/differential suite wall-clocked
/// under both execution engines. Each leg runs the full differential
/// corpus (`--cases` graphs, every execution configuration vs the CPU
/// oracles) plus the adaptive runtime on every paper workload at
/// `--scale` (BFS/SSSP/CC/PageRank per dataset). Four legs, all of
/// which must come back clean and value-identical:
///
/// 1. the legacy harness configuration — tree-walking interpreter, fully
///    timed, race detector on (what every artifact paid before the
///    bytecode engine landed);
/// 2. the bytecode engine at the same timed+races fidelity (isolates the
///    engine swap from the fidelity split);
/// 3. the bytecode engine fully timed with the race detector off — the
///    timed fast lane (folded cost blocks, pattern-cached coalescing,
///    batched charging) that paper-scale timed tables pay;
/// 4. the bytecode engine at fast-functional fidelity (the harness
///    default today).
///
/// Writes `BENCH_sim.json` at the repository root with per-leg
/// corpus-vs-workload wall breakdowns and a rolling `speedup_timed`
/// history; the CI `sim-speed` job gates on `speedup` (leg 1 / leg 4),
/// `speedup_timed` (leg 1 / leg 3) and `speedup_timed_races` (leg 1 /
/// leg 2) staying above their floors.
fn simbench(cli: &Cli) {
    banner("Simulator speed: repro + differential suites, interpreter vs bytecode");
    let legs: [(&str, ExecEngine, SimFidelity); 4] = [
        (
            "interpreter_timed_races",
            ExecEngine::Interpreter,
            SimFidelity::TimedWithRaces,
        ),
        (
            "bytecode_timed_races",
            ExecEngine::Bytecode,
            SimFidelity::TimedWithRaces,
        ),
        ("bytecode_timed", ExecEngine::Bytecode, SimFidelity::Timed),
        (
            "bytecode_functional",
            ExecEngine::Bytecode,
            SimFidelity::Functional,
        ),
    ];
    let workloads = load_all(cli.scale, cli.seed);
    let mut wall = Vec::new();
    let mut docs = Vec::new();
    let mut baseline_values: Option<Vec<Vec<u32>>> = None;
    for (name, engine, fidelity) in legs {
        let mut cfg = agg_bench::FuzzConfig::new(cli.cases, cli.seed);
        cfg.engine = engine;
        cfg.race_detect = matches!(fidelity, SimFidelity::TimedWithRaces);
        cfg.fidelity = Some(fidelity);
        let t0 = Instant::now();
        let report = agg_bench::fuzz(&cfg);
        if !report.is_clean() {
            eprintln!(
                "simbench: leg '{name}' diverged ({} divergence(s)) — engines disagree",
                report.divergences.len()
            );
            std::process::exit(1);
        }
        let corpus_secs = t0.elapsed().as_secs_f64();
        let mut leg_values = Vec::new();
        let mut repro_runs = 0u64;
        let t1 = Instant::now();
        for w in &workloads {
            let dev_cfg = DeviceConfig::tesla_c2070()
                .with_engine(engine)
                .with_fidelity(fidelity);
            let mut session = Session::with_device(&w.graph, dev_cfg).expect("simbench device");
            for q in [
                Query::Bfs { src: w.src },
                Query::Sssp { src: w.src },
                Query::Cc,
                Query::pagerank(),
            ] {
                let r = session
                    .run(q, &RunOptions::default())
                    .expect("simbench run");
                leg_values.push(r.values);
                repro_runs += 1;
            }
        }
        let workload_secs = t1.elapsed().as_secs_f64();
        let secs = corpus_secs + workload_secs;
        match &baseline_values {
            None => baseline_values = Some(leg_values),
            Some(base) => {
                if *base != leg_values {
                    eprintln!("simbench: leg '{name}' produced different workload values");
                    std::process::exit(1);
                }
            }
        }
        println!(
            "  {name:<26} {secs:>8.2}s  (corpus {corpus_secs:.2}s / {} runs, \
             workloads {workload_secs:.2}s / {repro_runs} runs, clean)",
            report.runs
        );
        wall.push(secs);
        docs.push(Json::obj([
            ("name", name.into()),
            ("engine", format!("{engine:?}").into()),
            ("fidelity", format!("{fidelity:?}").into()),
            (
                "race_detect",
                Json::Bool(matches!(fidelity, SimFidelity::TimedWithRaces)),
            ),
            ("wall_s", secs.into()),
            ("corpus_wall_s", corpus_secs.into()),
            ("workload_wall_s", workload_secs.into()),
            ("corpus_runs", report.runs.into()),
            ("workload_runs", repro_runs.into()),
        ]));
    }
    // Primary gate: the legacy fully-timed harness against the timed
    // fast lane (same modeled nanoseconds, no race bookkeeping) — the
    // configuration every paper-scale timed table now pays. The
    // engine-isolated timed+races ratio stays as a secondary metric.
    let speedup_timed = wall[0] / wall[2];
    let speedup_timed_races = wall[0] / wall[1];
    let speedup = wall[0] / wall[3];
    println!(
        "  timed speedup (legacy vs timed fast lane): {speedup_timed:.2}x\n  \
         engine speedup (timed+races vs timed+races): {speedup_timed_races:.2}x\n  \
         suite speedup (legacy vs new default): {speedup:.2}x"
    );
    let mut history = prior_speedup_timed_history("BENCH_sim.json");
    history.push(speedup_timed);
    let keep = history.len().saturating_sub(24);
    let doc = Json::obj([
        ("suite", "differential+repro".into()),
        ("cases", cli.cases.into()),
        ("scale", format!("{:?}", cli.scale).into()),
        ("seed", cli.seed.into()),
        ("legs", Json::Arr(docs)),
        ("speedup_timed", speedup_timed.into()),
        ("speedup_timed_races", speedup_timed_races.into()),
        ("speedup", speedup.into()),
        (
            "speedup_timed_history",
            Json::arr(history[keep..].iter().map(|&s| s.into())),
        ),
    ]);
    std::fs::write("BENCH_sim.json", doc.render_pretty()).expect("write BENCH_sim.json");
    println!("[json] BENCH_sim.json");
}

/// Pulls the rolling `speedup_timed_history` out of the previous
/// `BENCH_sim.json`, so each simbench run appends rather than
/// overwrites. The artifact is machine-written with known formatting, so
/// a targeted scan beats carrying a JSON parser: read the array after
/// the key, or fall back to the scalar `speedup_timed` from artifacts
/// that predate the history field. Missing or malformed files yield an
/// empty history.
fn prior_speedup_timed_history(path: &str) -> Vec<f64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    if let Some(at) = text.find("\"speedup_timed_history\"") {
        let rest = &text[at..];
        if let (Some(lb), Some(rb)) = (rest.find('['), rest.find(']')) {
            if lb < rb {
                return rest[lb + 1..rb]
                    .split(',')
                    .filter_map(|s| s.trim().parse::<f64>().ok())
                    .collect();
            }
        }
        return Vec::new();
    }
    if let Some(at) = text.find("\"speedup_timed\"") {
        let rest = &text[at + "\"speedup_timed\"".len()..];
        if let Some(colon) = rest.find(':') {
            let val = rest[colon + 1..]
                .split([',', '}', '\n'])
                .next()
                .unwrap_or("");
            if let Ok(v) = val.trim().parse::<f64>() {
                return vec![v];
            }
        }
    }
    Vec::new()
}

// ------------------------------------------------------------------ Shard

/// Multi-device sharded execution: BFS and SSSP per dataset, split over
/// 1/2/4/8 simulated devices with per-superstep frontier exchange over a
/// modeled PCIe interconnect, under the cut-minimizing clustered
/// partitioner with boundary/interior overlap. Every sharded run is
/// checked bit-for-bit against the single-device result before its row
/// is printed — the scaling table is only as interesting as the answers
/// are identical. `--shards N` caps the sweep; `--json PATH` writes
/// every [`agg_core::ShardReport`] as a JSON artifact. A compact
/// per-configuration summary (total / exchange / overlap / speedup) is
/// always written to `BENCH_shard.json` at the repository root.
fn shard(cli: &Cli) {
    banner("Multi-device sharded execution: scaling over simulated devices (PCIe model)");
    let counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&k| k <= cli.shards)
        .collect();
    let mut workloads = load_all(cli.scale, cli.seed);
    if let Some(wanted) = &cli.datasets {
        workloads.retain(|w| wanted.contains(&w.dataset));
    }
    let header: Vec<String> = [
        "network",
        "algo",
        "shards",
        "total_ms",
        "exchange_ms",
        "overlap_ms",
        "exchange_pct",
        "cut_pct",
        "speedup",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut docs = Vec::new();
    let mut bench = Vec::new();
    let opts = RunOptions::default();
    for w in &workloads {
        for algo in [Algo::Bfs, Algo::Sssp] {
            let query = match algo {
                Algo::Bfs => Query::Bfs { src: w.src },
                _ => Query::Sssp { src: w.src },
            };
            let mut session = Session::new(&w.graph).expect("single-device upload");
            let single = session.run(query, &opts).expect("single-device run");
            let mut base_ms = None;
            for &k in &counts {
                let mut sg = ShardedGraph::with_config(
                    &w.graph,
                    k,
                    cli.partition,
                    DeviceConfig::tesla_c2070(),
                    Interconnect::pcie(),
                )
                .expect("sharded upload");
                let r = sg.run(query, &opts).expect("sharded run");
                assert_eq!(
                    r.values,
                    single.values,
                    "{} {:?} x{k}: sharded result != single-device",
                    w.dataset.name(),
                    algo
                );
                assert_eq!(r.accounting_gap(), 0.0, "time accounting leak");
                let total_ms = r.total_ms();
                let base = *base_ms.get_or_insert(total_ms);
                rows.push(vec![
                    w.dataset.name().to_string(),
                    format!("{algo:?}"),
                    k.to_string(),
                    format!("{total_ms:.2}"),
                    format!("{:.2}", r.exchange_ns / 1e6),
                    format!("{:.2}", r.overlap_saved_ns / 1e6),
                    format!("{:.1}", 100.0 * r.exchange_ns / r.total_ns.max(1.0)),
                    format!("{:.1}", 100.0 * r.cut_fraction),
                    format!("{:.2}", base / total_ms),
                ]);
                bench.push(Json::obj([
                    ("dataset", w.dataset.name().into()),
                    ("algo", format!("{algo:?}").into()),
                    ("shards", k.into()),
                    ("total_ns", r.total_ns.into()),
                    ("exchange_ns", r.exchange_ns.into()),
                    ("overlap_saved_ns", r.overlap_saved_ns.into()),
                    ("cut_fraction", r.cut_fraction.into()),
                    ("speedup", (base / total_ms).into()),
                ]));
                let mut doc = vec![
                    ("dataset", Json::from(w.dataset.name())),
                    ("algo", format!("{algo:?}").into()),
                    ("report", r.to_json()),
                ];
                if std::env::var_os("AGG_SHARD_PROFILE").is_some() {
                    doc.push(("kernel_profiles", Json::Arr(sg.kernel_profiles())));
                }
                docs.push(Json::obj(doc));
            }
        }
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!(
        "(speedup = one-device modeled time / k-device modeled time, same adaptive runtime\n\
         \u{20}per shard; exchange = visible all-to-all frontier traffic over PCIe after\n\
         \u{20}boundary/interior overlap (overlap_ms = wire time hidden behind interior\n\
         \u{20}compute); cut_pct = cross-shard edges under the selected partitioning\n\
         \u{20}(--partition, default degree-balanced); results bit-identical)"
    );
    let path = write_csv(&cli.out, "shard_scaling", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
    let bench_doc = Json::obj([
        ("scale", format!("{:?}", cli.scale).into()),
        ("seed", cli.seed.into()),
        ("partition_strategy", format!("{:?}", cli.partition).into()),
        ("configs", Json::Arr(bench)),
    ]);
    std::fs::write("BENCH_shard.json", bench_doc.render_pretty()).expect("write BENCH_shard.json");
    println!("[json] BENCH_shard.json");
    if let Some(path) = &cli.json {
        let doc = Json::obj([
            ("scale", format!("{:?}", cli.scale).into()),
            ("seed", cli.seed.into()),
            ("runs", Json::Arr(docs)),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create --json directory");
        }
        std::fs::write(path, doc.render_pretty()).expect("write --json file");
        println!("[json] {}", path.display());
    }
}

// ------------------------------------------------------------------ Serve

/// The throughput-serving benchmark: one deterministic open-loop Poisson
/// trace (mixed BFS/SSSP/CC/PageRank over two hosted graphs, periodic
/// dynamic update batches), replayed twice through the agg-serve
/// admission → micro-batch → Session → cache pipeline in virtual time:
///
/// 1. **cached** — the production path, with every cache hit recomputed
///    through the uncached path and compared bit-for-bit (`verify_hits`);
/// 2. **uncached** — the same trace with the result cache disabled, the
///    baseline that prices what memoization buys.
///
/// Latencies are virtual (arrivals from the trace, service times from the
/// simulator's modeled nanoseconds), so p50/p99/queries-per-sec are exactly
/// reproducible. Writes `BENCH_serve.json` at the repository root with
/// both legs and a rolling cached-qps history; the CI `serve-smoke` job
/// gates on zero shed and on the cache-identity flag.
fn serve(cli: &Cli) {
    banner("Serving: open-loop trace through admission / micro-batching / epoch cache");
    let hosted: [(Dataset, &str); 2] = [(Dataset::Amazon, "amazon"), (Dataset::Google, "google")];
    let build_hosts = || -> Vec<agg_serve::Hosted> {
        hosted
            .iter()
            .enumerate()
            .map(|(i, (dataset, name))| {
                let graph = std::sync::Arc::new(dataset.generate_weighted(
                    cli.scale,
                    cli.seed + i as u64,
                    64,
                ));
                agg_serve::Hosted::new(*name, graph, DeviceConfig::tesla_c2070())
                    .expect("serve host")
            })
            .collect()
    };
    let trace = agg_serve::ArrivalTrace::generate(agg_serve::TraceConfig {
        queries: cli.queries,
        rate_qps: cli.rate_qps,
        seed: cli.seed,
        graphs: hosted.iter().map(|(_, n)| n.to_string()).collect(),
        source_pool: 8,
        // Two dynamic update batches mid-trace: enough to price epoch
        // invalidation and cache repair without turning the run into a
        // cold-cache benchmark.
        update_every: (cli.queries / 3).max(1),
        update_size: 4,
    });
    // The benchmark prices batching + caching, not admission: the queue
    // holds the whole trace so neither leg sheds (overload behavior is
    // covered by the agg-serve test suite).
    let base = agg_serve::ReplayConfig {
        queue_capacity: cli.queries,
        max_batch: 8,
        cache_hit_ns: 20_000,
        verify_hits: false,
        use_cache: true,
    };
    println!(
        "trace: {} queries over {} graphs at {:.0} qps offered (seed {}), {} update batches",
        trace.query_count(),
        hosted.len(),
        cli.rate_qps,
        cli.seed,
        trace.arrivals.len() - trace.query_count(),
    );
    let legs: [(&str, agg_serve::ReplayConfig); 2] = [
        (
            "cached",
            agg_serve::ReplayConfig {
                verify_hits: true,
                ..base.clone()
            },
        ),
        (
            "uncached",
            agg_serve::ReplayConfig {
                use_cache: false,
                ..base
            },
        ),
    ];
    let header: Vec<String> = [
        "leg", "served", "shed", "hits", "batches", "p50_ms", "p99_ms", "mean_ms", "qps",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for (name, config) in legs {
        let t0 = Instant::now();
        let outcome =
            agg_serve::replay(&mut build_hosts(), &trace, &config).expect("serve replay");
        let r = &outcome.report;
        println!(
            "  {name:<9} replayed in {:.1}s wall ({} cache hits verified bit-identical)",
            t0.elapsed().as_secs_f64(),
            r.verified_hits,
        );
        if !r.cache_identity_ok {
            eprintln!("serve: leg '{name}' served cached values that differ from recomputation");
            std::process::exit(1);
        }
        rows.push(vec![
            name.to_string(),
            r.served.to_string(),
            r.shed.to_string(),
            r.cache_hits.to_string(),
            r.batches.to_string(),
            format!("{:.3}", r.p50_latency_ns as f64 / 1e6),
            format!("{:.3}", r.p99_latency_ns as f64 / 1e6),
            format!("{:.3}", r.mean_latency_ns / 1e6),
            format!("{:.0}", r.qps),
        ]);
        reports.push((name, outcome));
    }
    println!("{}", format_table(&header, &rows, |_| None));
    let cached = &reports[0].1.report;
    let uncached = &reports[1].1.report;
    let p99_gain = uncached.p99_latency_ns as f64 / (cached.p99_latency_ns.max(1)) as f64;
    let qps_gain = cached.qps / uncached.qps.max(1e-9);
    println!(
        "(virtual-time replay: latency = modeled batch makespans + queueing; the epoch cache\n\
         \u{20}answers repeats in {:.0} us, cutting p99 {p99_gain:.1}x and lifting throughput {qps_gain:.2}x;\n\
         \u{20}every hit above was recomputed uncached and matched bit-for-bit)",
        base.cache_hit_ns as f64 / 1e3,
    );
    let path = write_csv(&cli.out, "serve", &header, &rows).unwrap();
    println!("[csv] {}", path.display());

    let mut history = prior_qps_history("BENCH_serve.json");
    history.push(cached.qps);
    let keep = history.len().saturating_sub(24);
    let doc = Json::obj([
        ("suite", "serve-replay".into()),
        ("scale", format!("{:?}", cli.scale).into()),
        ("seed", cli.seed.into()),
        ("queries", trace.query_count().into()),
        ("rate_qps", cli.rate_qps.into()),
        (
            "graphs",
            Json::arr(hosted.iter().map(|(_, n)| Json::from(*n))),
        ),
        ("max_batch", base.max_batch.into()),
        ("cache_hit_ns", base.cache_hit_ns.into()),
        ("qps", cached.qps.into()),
        ("p50_latency_ns", cached.p50_latency_ns.into()),
        ("p99_latency_ns", cached.p99_latency_ns.into()),
        ("cache_identity_ok", cached.cache_identity_ok.into()),
        ("qps_gain_vs_uncached", qps_gain.into()),
        ("cached", cached.to_json()),
        ("uncached", uncached.to_json()),
        (
            "qps_history",
            Json::arr(history[keep..].iter().map(|&s| s.into())),
        ),
    ]);
    std::fs::write("BENCH_serve.json", doc.render_pretty()).expect("write BENCH_serve.json");
    println!("[json] BENCH_serve.json");

    if let Some(path) = &cli.json {
        let legs_doc: Vec<Json> = reports
            .iter()
            .map(|(name, outcome)| {
                Json::obj([
                    ("leg", (*name).into()),
                    ("report", outcome.report.to_json()),
                    (
                        "latencies_ns",
                        Json::arr(outcome.records.iter().map(|r| match r.latency_ns {
                            Some(ns) => ns.into(),
                            None => Json::Null,
                        })),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("scale", format!("{:?}", cli.scale).into()),
            ("seed", cli.seed.into()),
            ("legs", Json::Arr(legs_doc)),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create --json directory");
        }
        std::fs::write(path, doc.render_pretty()).expect("write --json file");
        println!("[json] {}", path.display());
    }
}

// ----------------------------------------------------------------- Dynamic

/// Dynamic graphs: the incremental-repair identity gate plus the
/// recompute-vs-incremental crossover table (the dynamic analog of the
/// paper's Figure 11 decision space). Two stages:
///
/// 1. **identity** — a bounded dynamic differential fuzz over the shared
///    adversarial corpus: random insert/delete batches, every mutation
///    checked four ways (cold GPU, CPU incremental oracle, unchanged
///    plans, GPU warm repair) against the from-scratch CPU recompute,
///    with ddmin over the update sequence on any divergence;
/// 2. **crossover** — growing insert batches against the Amazon analog
///    at `--scale`: modeled nanoseconds of warm repair vs cold recompute
///    per repairable algorithm, and the first batch size at which repair
///    stops winning (by the clock or by the planner's own fallback).
///
/// Writes `BENCH_dynamic.json` at the repository root (the CI
/// `dynamic-smoke` job gates on `clean`, `identity_ok`, a non-empty
/// crossover table, and incremental plans actually being exercised) and
/// exits nonzero when any gate fails.
fn dynamic(cli: &Cli) {
    banner("Dynamic graphs: incremental repair identity + recompute-vs-incremental crossover");
    let cases = cli.cases.min(match cli.scale {
        Scale::Tiny => 12,
        Scale::Small => 32,
        Scale::Paper => 64,
    });
    let cfg = agg_bench::DynFuzzConfig::new(cases, cli.seed);
    println!(
        "identity: {} corpus graphs x {} update rounds of {} updates (seed {})",
        cfg.cases, cfg.rounds, cfg.update_size, cfg.seed
    );
    let t0 = Instant::now();
    let fuzz_report = agg_bench::dyn_fuzz(&cfg);
    println!(
        "  {} applied batches ({} no-ops), {} checks; plans: {} unchanged / {} incremental / \
         {} recompute; {} warm runs, {} compactions — {} divergence(s) [{:.1}s]",
        fuzz_report.rounds_applied,
        fuzz_report.rounds_noop,
        fuzz_report.checks,
        fuzz_report.plans_unchanged,
        fuzz_report.plans_incremental,
        fuzz_report.plans_recompute,
        fuzz_report.warm_runs,
        fuzz_report.compactions,
        fuzz_report.divergences.len(),
        t0.elapsed().as_secs_f64(),
    );
    for d in &fuzz_report.divergences {
        println!(
            "  DIVERGED case {} round {} ({}, {} nodes / {} edges): {}/{} src {}{}",
            d.case,
            d.round,
            d.generator,
            d.nodes,
            d.edges,
            d.algo,
            d.lane,
            d.src,
            d.error
                .as_ref()
                .map(|e| format!(" — error: {e}"))
                .unwrap_or_default()
        );
        if !d.minimized_updates.is_empty() {
            println!(
                "    minimized to {} update(s): {:?}",
                d.minimized_updates.len(),
                d.minimized_updates
            );
        }
    }

    let graph = Dataset::Amazon.generate_weighted(cli.scale, cli.seed, 64);
    let sizes = agg_bench::sweep_sizes(graph.edge_count());
    println!(
        "crossover: amazon at {:?} ({} nodes / {} edges), insert batches {:?}",
        cli.scale,
        graph.node_count(),
        graph.edge_count(),
        sizes
    );
    let xr = agg_bench::crossover(&graph, cli.seed, &sizes);
    let header: Vec<String> = ["algo", "batch", "seeds", "plan", "fresh_ms", "warm_ms", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = xr
        .rows
        .iter()
        .map(|p| {
            vec![
                p.algo.clone(),
                p.batch_size.to_string(),
                p.seeds.to_string(),
                p.plan.clone(),
                format!("{:.3}", p.fresh_ns / 1e6),
                p.warm_ns
                    .map(|w| format!("{:.3}", w / 1e6))
                    .unwrap_or_else(|| "-".into()),
                p.speedup()
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows, |_| None));
    for (algo, at) in &xr.crossover_at {
        match at {
            Some(k) => println!(
                "  {algo}: incremental repair stops winning at batch size {k}"
            ),
            None => println!("  {algo}: incremental repair won at every swept size"),
        }
    }
    println!(
        "(speedup = cold modeled time / warm modeled time on the updated graph; \"-\" = the\n\
         \u{20}planner served unchanged or fell back to recompute; every warm result above was\n\
         \u{20}verified bit-identical to the cold run before its time was recorded)"
    );
    let path = write_csv(&cli.out, "dynamic_crossover", &header, &rows).unwrap();
    println!("[csv] {}", path.display());

    let doc = Json::obj([
        ("suite", "dynamic".into()),
        ("scale", format!("{:?}", cli.scale).into()),
        ("seed", cli.seed.into()),
        ("identity", fuzz_report.to_json()),
        ("crossover", xr.to_json()),
    ]);
    std::fs::write("BENCH_dynamic.json", doc.render_pretty()).expect("write BENCH_dynamic.json");
    println!("[json] BENCH_dynamic.json");
    if let Some(path) = &cli.json {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create --json directory");
        }
        std::fs::write(path, doc.render_pretty()).expect("write --json file");
        println!("[json] {}", path.display());
    }

    let mut failed = Vec::new();
    if !fuzz_report.is_clean() {
        failed.push("identity fuzz found divergences");
    }
    if fuzz_report.plans_incremental == 0 {
        failed.push("the corpus never exercised an incremental plan");
    }
    if !xr.identity_ok {
        failed.push("a warm repair diverged from its cold recompute");
    }
    if xr.rows.is_empty() {
        failed.push("the crossover sweep produced no rows");
    }
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("dynamic: FAILED — {f}");
        }
        std::process::exit(1);
    }
    println!("dynamic: clean");
}

/// Pulls the rolling cached-qps history out of the previous
/// `BENCH_serve.json` so each serve run appends a point instead of
/// overwriting the trajectory. Parsed with the real JSON reader (unlike
/// the older text-scanning `prior_speedup_timed_history`, which predates
/// `Json::parse`); a missing or malformed file yields an empty history.
fn prior_qps_history(path: &str) -> Vec<f64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    doc.get("qps_history")
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

// ---------------------------------------------------------------- Table 1

fn table1(cli: &Cli) {
    banner("Table 1: dataset characterization (synthetic analogs vs paper)");
    let header: Vec<String> = [
        "network",
        "nodes",
        "edges",
        "deg.min",
        "deg.max",
        "deg.avg",
        "paper.nodes",
        "paper.edges",
        "paper.avg",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for d in Dataset::ALL {
        let g = d.generate(cli.scale, cli.seed);
        let s = GraphStats::compute(&g);
        let p = d.paper_stats();
        rows.push(vec![
            d.name().to_string(),
            s.nodes.to_string(),
            s.edges.to_string(),
            s.degree.min.to_string(),
            s.degree.max.to_string(),
            format!("{:.1}", s.degree.avg),
            p.nodes.to_string(),
            p.edges.to_string(),
            format!("{:.1}", p.avg_outdegree),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    let path = write_csv(&cli.out, "table1", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- Figure 1

fn fig1(cli: &Cli) {
    banner("Figure 1: outdegree distributions (CO-road, Amazon, CiteSeer)");
    let header: Vec<String> = ["dataset", "outdegree", "pct_nodes"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for d in [Dataset::CoRoad, Dataset::Amazon, Dataset::CiteSeer] {
        let g = d.generate(cli.scale, cli.seed);
        let cap = 20usize;
        let hist = stats::degree_histogram(&g, cap);
        let n = g.node_count() as f64;
        println!(
            "\n{} (degrees above {cap} pooled in the last bucket):",
            d.name()
        );
        for (deg, &count) in hist.iter().enumerate() {
            let pct = 100.0 * count as f64 / n;
            if pct >= 0.05 {
                let label = if deg > cap {
                    format!(">{cap}")
                } else {
                    deg.to_string()
                };
                println!(
                    "  {label:>4} | {:<50} {pct:5.1}%",
                    "#".repeat((pct / 2.0) as usize)
                );
                rows.push(vec![d.name().to_string(), label, format!("{pct:.2}")]);
            }
        }
    }
    let path = write_csv(&cli.out, "fig1", &header, &rows).unwrap();
    println!("\n[csv] {}", path.display());
}

// ---------------------------------------------------------------- Figure 2

fn fig2(cli: &Cli) {
    banner("Figure 2: working-set size per iteration (unordered SSSP, U_T_BM)");
    let header: Vec<String> = ["dataset", "iteration", "ws_size"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for d in [Dataset::CoRoad, Dataset::Amazon, Dataset::Sns] {
        let w = load(d, cli.scale, cli.seed);
        let opts = RunOptions::builder()
            .static_variant(Variant::parse("U_T_BM").unwrap())
            .census(CensusMode::Every)
            .trace()
            .build();
        let r = gpu_run(&w, Algo::Sssp, &opts).expect("fig2 run");
        let peak = r.trace.iter().filter_map(|t| t.ws_size).max().unwrap_or(0);
        println!(
            "\n{}: {} iterations, peak working set {} nodes ({:.1}% of n)",
            d.name(),
            r.iterations,
            peak,
            100.0 * peak as f64 / w.graph.node_count() as f64
        );
        for t in &r.trace {
            if let Some(ws) = t.ws_size {
                rows.push(vec![
                    d.name().to_string(),
                    t.iteration.to_string(),
                    ws.to_string(),
                ]);
            }
        }
        // compact sparkline: sample ~60 iterations
        let step = (r.trace.len() / 60).max(1);
        let mut line = String::new();
        for t in r.trace.iter().step_by(step) {
            let ws = t.ws_size.unwrap_or(0) as f64;
            let lvl = (8.0 * ws / peak.max(1) as f64).round() as usize;
            line.push(['.', '1', '2', '3', '4', '5', '6', '7', '8'][lvl.min(8)]);
        }
        println!("  shape: {line}");
    }
    let path = write_csv(&cli.out, "fig2", &header, &rows).unwrap();
    println!("\n[csv] {}", path.display());
}

// ------------------------------------------------------------- Tables 2/3

fn speedups(cli: &Cli, algo: Algo) {
    let (title, csv) = match algo {
        Algo::Bfs => (
            "Table 2: BFS speedup (GPU over serial CPU baseline)",
            "table2",
        ),
        Algo::Sssp => (
            "Table 3: SSSP speedup (GPU over serial CPU Dijkstra)",
            "table3",
        ),
        Algo::Cc => (
            "Extension: CC speedup (GPU over serial CPU label propagation)",
            "table_cc",
        ),
        Algo::PageRank => (
            "Extension: PageRank speedup (GPU over serial CPU delta)",
            "table_pagerank8",
        ),
    };
    banner(title);
    let workloads = load_all(cli.scale, cli.seed);
    let table = speedup_table(&workloads, algo).expect("speedup table");
    let mut header: Vec<String> = vec!["network".to_string()];
    header.extend(Variant::ALL.iter().map(|v| v.name().to_string()));
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.dataset.to_string()];
            row.extend(r.speedups.iter().map(|s| format!("{s:.2}")));
            row
        })
        .collect();
    println!(
        "{}",
        format_table(&header, &rows, |r| Some(table.rows[r].best_variant() + 1))
    );
    println!("(* = best variant per dataset — the paper's grey cells)");
    let path = write_csv(&cli.out, csv, &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- Figure 11

fn fig11(cli: &Cli) {
    banner("Figure 11: decision space");
    let w = load(Dataset::Google, cli.scale, cli.seed);
    let tuning = AdaptiveConfig::default();
    println!(
        "{}",
        decision::render_decision_space(&tuning, w.graph.node_count() as u32)
    );
}

// ---------------------------------------------------------------- Figure 12

fn fig12(cli: &Cli) {
    banner("Figure 12: processing speed of the best implementation (M nodes/s)");
    let workloads = load_all(cli.scale, cli.seed);
    let header: Vec<String> = [
        "network",
        "bfs_Mnodes_s",
        "bfs_best",
        "sssp_Mnodes_s",
        "sssp_best",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for w in &workloads {
        let mut cells = vec![w.dataset.name().to_string()];
        for algo in [Algo::Bfs, Algo::Sssp] {
            let mut best: Option<(f64, Variant)> = None;
            for v in Variant::ALL {
                let r = agg_bench::gpu_static_run(w, algo, v).expect("fig12 run");
                if best.is_none_or(|(t, _)| r.total_ns < t) {
                    best = Some((r.total_ns, v));
                }
            }
            let (ns, v) = best.unwrap();
            let mnps = w.graph.node_count() as f64 / ns * 1e3; // nodes/ns * 1e3 = M/s... see below
                                                               // nodes / (ns * 1e-9) / 1e6 = nodes / ns * 1e3
            cells.push(format!("{mnps:.1}"));
            cells.push(v.name().to_string());
        }
        rows.push(cells);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    let path = write_csv(&cli.out, "fig12", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- Figure 13

fn fig13(cli: &Cli) {
    banner("Figure 13: adaptive SSSP execution time vs T3 (% of nodes)");
    let workloads = load_all(cli.scale, cli.seed);
    let fractions: Vec<f64> = (1..=13).map(|p| p as f64 / 100.0).collect();
    let mut header: Vec<String> = vec!["network".to_string()];
    header.extend(fractions.iter().map(|f| format!("{:.0}%", f * 100.0)));

    // The T3 region only exists where T3 > T2. At paper scale
    // (n >= 400k) the 1-13% sweep clears T2 = 2688 easily; at the
    // reduced default scale it mostly does not, so we print two sweeps:
    // the true C2070 decision space, and a device-proportional one with
    // T2 scaled by the same factor as the graphs, which exposes the
    // queue<->bitmap trade-off the paper's figure shows.
    for (label, t2_override, csv) in [
        ("C2070 thresholds (T2 = 2688)", None, "fig13"),
        (
            "device-proportional thresholds (T2 = 192)",
            Some(192u32),
            "fig13_scaled",
        ),
    ] {
        println!("\n-- {label} --");
        let mut rows = Vec::new();
        for w in &workloads {
            let mut row = vec![w.dataset.name().to_string()];
            let mut best = (f64::INFINITY, 0.0);
            for &f in &fractions {
                let mut tuning = AdaptiveConfig {
                    t3_fraction: f,
                    ..Default::default()
                };
                if let Some(t2) = t2_override {
                    tuning.t2_ws_size = t2;
                }
                let opts = RunOptions::builder().tuning(tuning).build();
                let r = gpu_run(w, Algo::Sssp, &opts).expect("fig13 run");
                let ms = r.total_ns / 1e6;
                if ms < best.0 {
                    best = (ms, f);
                }
                row.push(format!("{ms:.2}"));
            }
            println!(
                "{}: best T3 = {:.0}% ({:.2} ms)",
                w.dataset.name(),
                best.1 * 100.0,
                best.0
            );
            rows.push(row);
        }
        println!("\n{}", format_table(&header, &rows, |_| None));
        println!("(cells: execution time in ms)");
        let path = write_csv(&cli.out, csv, &header, &rows).unwrap();
        println!("[csv] {}", path.display());
    }
}

// ---------------------------------------------------------------- Adaptive

fn adaptive(cli: &Cli) {
    banner("Adaptive vs static (Section VII.C: 'outperforms the best static, up to 2x')");
    let workloads = load_all(cli.scale, cli.seed);
    let header: Vec<String> = [
        "network",
        "algo",
        "adaptive_ms",
        "best_static_ms",
        "best_static",
        "worst_static_ms",
        "adaptive/best",
        "switches",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for w in &workloads {
        for algo in [Algo::Bfs, Algo::Sssp] {
            let ad = gpu_run(w, algo, &RunOptions::default()).expect("adaptive run");
            let mut best: Option<(f64, Variant)> = None;
            let mut worst = 0.0f64;
            for v in Variant::ALL {
                let r = agg_bench::gpu_static_run(w, algo, v).expect("static run");
                if best.is_none_or(|(t, _)| r.total_ns < t) {
                    best = Some((r.total_ns, v));
                }
                worst = worst.max(r.total_ns);
            }
            let (best_ns, best_v) = best.unwrap();
            rows.push(vec![
                w.dataset.name().to_string(),
                format!("{algo:?}"),
                format!("{:.2}", ad.total_ns / 1e6),
                format!("{:.2}", best_ns / 1e6),
                best_v.name().to_string(),
                format!("{:.2}", worst / 1e6),
                format!("{:.2}", ad.total_ns / best_ns),
                ad.switches.to_string(),
            ]);
        }
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(adaptive/best < 1 means the adaptive runtime beat every static variant)");
    let path = write_csv(&cli.out, "adaptive", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- Sampling

fn sampling(cli: &Cli) {
    banner("Sampling-period sweep (Section VI.E inspector overhead)");
    let workloads = load_all(cli.scale, cli.seed);
    let periods = [1u32, 2, 4, 8, 16, 32];
    let mut header: Vec<String> = vec!["network".to_string()];
    header.extend(periods.iter().map(|p| format!("period={p}")));
    let mut rows = Vec::new();
    for w in &workloads {
        let mut row = vec![w.dataset.name().to_string()];
        for &p in &periods {
            let tuning = AdaptiveConfig {
                sampling_period: p,
                ..Default::default()
            };
            let opts = RunOptions::builder().tuning(tuning).build();
            let r = gpu_run(w, Algo::Sssp, &opts).expect("sampling run");
            row.push(format!("{:.2}", r.total_ns / 1e6));
        }
        rows.push(row);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(cells: adaptive SSSP time in ms)");
    let path = write_csv(&cli.out, "sampling", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- T2 crossover

fn t2_crossover(cli: &Cli) {
    banner("T2 crossover: per-iteration time, T_QU vs B_QU, by working-set size");
    let mut buckets: Vec<(u32, u32, f64, f64, u32)> = Vec::new(); // lo, hi, t_qu_sum, b_qu_sum, count
    for shift in 0..18u32 {
        buckets.push((1 << shift, 2 << shift, 0.0, 0.0, 0));
    }
    let workloads = load_all(cli.scale, cli.seed);
    for w in &workloads {
        for (i, name) in ["U_T_QU", "U_B_QU"].iter().enumerate() {
            let opts = RunOptions::builder()
                .static_variant(Variant::parse(name).unwrap())
                .trace()
                .build();
            let r = gpu_run(w, Algo::Sssp, &opts).expect("t2 run");
            for t in &r.trace {
                if let Some(ws) = t.ws_size {
                    if let Some(b) = buckets.iter_mut().find(|b| ws >= b.0 && ws < b.1) {
                        if i == 0 {
                            b.2 += t.iter_ns;
                        } else {
                            b.3 += t.iter_ns;
                        }
                        b.4 += 1;
                    }
                }
            }
        }
    }
    let header: Vec<String> = ["ws_size_range", "T_QU_us", "B_QU_us", "winner"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut per_bucket: Vec<(u32, bool)> = Vec::new(); // (lo, thread wins)
    for (lo, hi, t, b, cnt) in buckets.iter().filter(|b| b.4 > 0) {
        let samples = (*cnt as f64 / 2.0).max(1.0);
        let (t_us, b_us) = (t / samples / 1e3, b / samples / 1e3);
        let winner = if t_us < b_us { "T_QU" } else { "B_QU" };
        per_bucket.push((*lo, t_us < b_us));
        rows.push(vec![
            format!("{lo}..{hi}"),
            format!("{t_us:.1}"),
            format!("{b_us:.1}"),
            winner.to_string(),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    // Stable crossover: the smallest bucket boundary above which T_QU wins
    // every remaining bucket (small buckets are noisy, so a single early
    // T_QU win must not count).
    let crossover = per_bucket
        .iter()
        .enumerate()
        .find(|(i, _)| per_bucket[*i..].iter().all(|&(_, tw)| tw))
        .map(|(_, &(lo, _))| lo);
    match crossover {
        Some(c) => println!(
            "T_QU wins consistently from ws ~{c} up (paper: ~3000 on the C2070; T2 = 2688)"
        ),
        None => println!("B_QU won every observed bucket at this scale"),
    }
    let path = write_csv(&cli.out, "t2_crossover", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- X1

fn ablation_queue(cli: &Cli) {
    banner("Ablation X1: atomic vs scan-based queue generation");
    let n: u32 = 100_000;
    let kernels = GpuKernels::build();
    let header: Vec<String> = ["fill_pct", "atomic_us", "scan_us", "scan_speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for fill_pct in [0.1f64, 1.0, 5.0, 20.0, 50.0, 100.0] {
        // deterministic striped fill at the requested density
        let stride = (100.0 / fill_pct).round().max(1.0) as u32;
        let update: Vec<u32> = (0..n).map(|i| (i % stride == 0) as u32).collect();
        let mut times = Vec::new();
        for kernel in [&kernels.gen_queue, &kernels.gen_queue_scan] {
            let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
            let u = dev.alloc_from_slice("update", &update);
            let q = dev.alloc("queue", n as usize);
            let len = dev.alloc("len", 1);
            let r = dev
                .launch(
                    kernel,
                    Grid::linear(n as u64, 192),
                    &LaunchArgs::new().bufs([u, q, len]).scalars([n]),
                )
                .expect("queue gen");
            times.push(r.time_ns);
        }
        rows.push(vec![
            format!("{fill_pct:.1}"),
            format!("{:.1}", times[0] / 1e3),
            format!("{:.1}", times[1] / 1e3),
            format!("{:.2}x", times[0] / times[1]),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!(
        "(atomic allocation serializes on the shared counter; scan pays one atomic per block)"
    );
    let path = write_csv(&cli.out, "ablation_queue", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ------------------------------------------------------ CC (extension)

fn table_cc(cli: &Cli) {
    banner("Extension: connected components, unordered variants vs serial CPU");
    let mut header: Vec<String> = vec!["network".to_string()];
    header.extend(Variant::UNORDERED.iter().map(|v| v.name().to_string()));
    header.push("adaptive".to_string());
    let mut rows = Vec::new();
    for w in load_all(cli.scale, cli.seed) {
        let cpu_ns = cpu_baseline_ns(&w, Algo::Cc);
        let mut row = vec![w.dataset.name().to_string()];
        for v in Variant::UNORDERED {
            let r = agg_bench::gpu_static_run(&w, Algo::Cc, v).expect("cc run");
            row.push(format!("{:.2}", cpu_ns / r.total_ns));
        }
        let ad = gpu_run(&w, Algo::Cc, &RunOptions::default()).expect("adaptive cc");
        row.push(format!("{:.2}", cpu_ns / ad.total_ns));
        rows.push(row);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(speedup over serial CPU label propagation; CC starts with ALL nodes active,");
    println!(" so bitmap variants skip the sparse-frontier weakness BFS/SSSP expose)");
    let path = write_csv(&cli.out, "table_cc", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------- virtual warp (extension)

fn ablation_vwarp(cli: &Cli) {
    banner("Extension: virtual-warp mapping width sweep (BFS, queue working set)");
    let widths = [2u32, 4, 8, 16, 32];
    let mut header: Vec<String> = vec!["network".to_string(), "U_T_QU".into(), "U_B_QU".into()];
    header.extend(widths.iter().map(|w| format!("VW{w}")));
    let mut rows = Vec::new();
    for w in load_all(cli.scale, cli.seed) {
        let mut row = vec![w.dataset.name().to_string()];
        for name in ["U_T_QU", "U_B_QU"] {
            let r = agg_bench::gpu_static_run(&w, Algo::Bfs, Variant::parse(name).unwrap())
                .expect("static run");
            row.push(format!("{:.2}", r.total_ns / 1e6));
        }
        for &width in &widths {
            let opts = RunOptions::builder()
                .strategy(Strategy::VirtualWarp {
                    width,
                    workset: agg_kernels::WorkSet::Queue,
                })
                .build();
            let r = gpu_run(&w, Algo::Bfs, &opts).expect("vwarp run");
            row.push(format!("{:.2}", r.total_ns / 1e6));
        }
        rows.push(row);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(ms; VW<w> = sub-warps of w threads per working-set element — the middle ground");
    println!(" between thread mapping (w=1) and block mapping the paper notes as future work)");
    let path = write_csv(&cli.out, "ablation_vwarp", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// --------------------------------------------------- hybrid (extension)

fn hybrid(cli: &Cli) {
    banner("Extension: CPU/GPU hybrid execution (after Hong et al. [13])");
    let header: Vec<String> = [
        "network",
        "algo",
        "cpu_ms",
        "gpu_adaptive_ms",
        "hybrid_ms",
        "host_share",
        "hybrid/gpu",
        "switches",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for w in load_all(cli.scale, cli.seed) {
        for algo in [Algo::Bfs, Algo::Sssp] {
            let cpu_ns = cpu_baseline_ns(&w, algo);
            let gpu = gpu_run(&w, algo, &RunOptions::default()).expect("adaptive run");
            let opts = RunOptions::builder()
                .strategy(Strategy::Hybrid {
                    gpu_threshold: AdaptiveConfig::default().t2_ws_size,
                })
                .build();
            let hy = gpu_run(&w, algo, &opts).expect("hybrid run");
            rows.push(vec![
                w.dataset.name().to_string(),
                format!("{algo:?}"),
                format!("{:.2}", cpu_ns / 1e6),
                format!("{:.2}", gpu.total_ns / 1e6),
                format!("{:.2}", hy.total_ns / 1e6),
                format!("{:.0}%", 100.0 * hy.host_ns / hy.total_ns),
                format!("{:.2}", hy.total_ns / gpu.total_ns),
                hy.switches.to_string(),
            ]);
        }
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(hybrid/gpu < 1: running small-frontier iterations on the host wins)");
    let path = write_csv(&cli.out, "hybrid", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- X2

fn ablation_launch(cli: &Cli) {
    banner("Ablation X2: launch-overhead sensitivity (adaptive BFS on CO-road)");
    let w = load(Dataset::CoRoad, cli.scale, cli.seed);
    let cpu_ns = cpu_baseline_ns(&w, Algo::Bfs);
    let header: Vec<String> = ["launch_overhead_us", "gpu_ms", "cpu_ms", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for overhead_us in [0.0f64, 1.0, 3.5, 7.0, 14.0, 20.0] {
        let mut cfg = DeviceConfig::tesla_c2070();
        cfg.launch_overhead_us = overhead_us;
        let mut session = Session::with_device(&w.graph, cfg).expect("device");
        let r = session
            .run(Query::Bfs { src: w.src }, &RunOptions::default())
            .expect("bfs");
        rows.push(vec![
            format!("{overhead_us:.1}"),
            format!("{:.2}", r.total_ns / 1e6),
            format!("{:.2}", cpu_ns / 1e6),
            format!("{:.2}", cpu_ns / r.total_ns),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(high-diameter road graphs pay the launch overhead ~once per BFS level)");
    let path = write_csv(&cli.out, "ablation_launch", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// --------------------------------------------- relabeling (extension)

fn ablation_relabel(cli: &Cli) {
    banner("Extension: BFS-order relabeling vs memory coalescing (U_T_BM BFS)");
    let header: Vec<String> = [
        "network",
        "orig_ms",
        "relab_ms",
        "orig_tx/edge",
        "relab_tx/edge",
        "time_gain",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let variant = Variant::parse("U_T_BM").unwrap();
    for w in load_all(cli.scale, cli.seed) {
        let edges = w.graph.edge_count().max(1) as f64;
        let orig = agg_bench::gpu_static_run(&w, Algo::Bfs, variant).expect("orig run");

        let relabeling = agg_graph::relabel::bfs_order(&w.graph, w.src);
        let relabeled_graph = agg_graph::relabel::apply(&w.graph, &relabeling).expect("relabel");
        let rw = agg_bench::workloads::Workload {
            dataset: w.dataset,
            graph: relabeled_graph,
            src: relabeling.perm[w.src as usize],
        };
        let relab = agg_bench::gpu_static_run(&rw, Algo::Bfs, variant).expect("relabeled run");

        rows.push(vec![
            w.dataset.name().to_string(),
            format!("{:.2}", orig.total_ns / 1e6),
            format!("{:.2}", relab.total_ns / 1e6),
            format!(
                "{:.2}",
                orig.gpu_stats.totals.mem_transactions as f64 / edges
            ),
            format!(
                "{:.2}",
                relab.gpu_stats.totals.mem_transactions as f64 / edges
            ),
            format!("{:.2}x", orig.total_ns / relab.total_ns),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(renumbering nodes in BFS order packs each frontier into contiguous ids,");
    println!(" so value/update accesses coalesce into fewer 128-byte transactions)");
    let path = write_csv(&cli.out, "ablation_relabel", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// --------------------------------------------------- stats (extension)

fn stats_profile(cli: &Cli) {
    banner("Divergence / traffic / atomics profile (adaptive BFS per dataset)");
    let header: Vec<String> = [
        "network",
        "simt_eff",
        "tx/edge",
        "bytes/edge",
        "atomics",
        "atomic_conflicts",
        "divergent_branches",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for w in load_all(cli.scale, cli.seed) {
        let r = gpu_run(&w, Algo::Bfs, &RunOptions::default()).expect("stats run");
        let t = r.gpu_stats.totals;
        let edges = w.graph.edge_count().max(1) as f64;
        rows.push(vec![
            w.dataset.name().to_string(),
            format!("{:.2}", t.simt_efficiency(32)),
            format!("{:.2}", t.mem_transactions as f64 / edges),
            format!("{:.1}", t.mem_bytes as f64 / edges),
            t.atomics.to_string(),
            t.atomic_conflicts.to_string(),
            t.divergent_branches.to_string(),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(simt_eff = active lanes / issued lane slots: skewed-degree graphs diverge more)");
    let path = write_csv(&cli.out, "stats_profile", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ------------------------------------------------ PageRank (extension)

fn table_pagerank(cli: &Cli) {
    banner("Extension: PageRank-delta, unordered variants vs serial CPU");
    let mut header: Vec<String> = vec!["network".to_string()];
    header.extend(Variant::UNORDERED.iter().map(|v| v.name().to_string()));
    header.push("adaptive".to_string());
    header.push("iters".to_string());
    let mut rows = Vec::new();
    for w in load_all(cli.scale, cli.seed) {
        let cpu_ns = cpu_baseline_ns(&w, Algo::PageRank);
        let mut row = vec![w.dataset.name().to_string()];
        for v in Variant::UNORDERED {
            let r = agg_bench::gpu_static_run(&w, Algo::PageRank, v).expect("pagerank run");
            row.push(format!("{:.2}", cpu_ns / r.total_ns));
        }
        let ad = gpu_run(&w, Algo::PageRank, &RunOptions::default()).expect("adaptive pagerank");
        row.push(format!("{:.2}", cpu_ns / ad.total_ns));
        row.push(ad.iterations.to_string());
        rows.push(row);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(speedup over serial CPU delta-PageRank; f32 ranks, d = 0.85, eps = 1e-4)");
    let path = write_csv(&cli.out, "table_pagerank", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ------------------------------------------------------- kernel listing

fn dump_kernels(cli: &Cli) {
    banner("Kernel listing (pseudo-CUDA)");
    let kernels = GpuKernels::build();
    let mut all: Vec<&agg_gpu_sim::Kernel> = Vec::new();
    all.extend(kernels.bfs.iter());
    all.extend(kernels.sssp.iter());
    all.extend(kernels.cc.iter());
    all.extend(kernels.pagerank.iter());
    all.extend([
        &kernels.gen_bitmap,
        &kernels.gen_queue,
        &kernels.gen_queue_scan,
        &kernels.prep,
        &kernels.count_bitmap,
        &kernels.degree_census_bitmap,
        &kernels.degree_census_queue,
        &kernels.findmin_bitmap,
        &kernels.findmin_queue,
        &kernels.bfs_vw_bitmap,
        &kernels.bfs_vw_queue,
        &kernels.sssp_vw_bitmap,
        &kernels.sssp_vw_queue,
        &kernels.bfs_bottom_up,
    ]);
    let mut listing = String::new();
    for k in &all {
        listing.push_str(&k.to_pseudo_code());
        listing.push('\n');
    }
    std::fs::create_dir_all(&cli.out).unwrap();
    let path = cli.out.join("kernels.cu.txt");
    std::fs::write(&path, &listing).unwrap();
    println!("{} kernels written to {}", all.len(), path.display());
    // show one example inline
    println!(
        "\nexample — bfs_U_T_BM:\n{}",
        kernels
            .bfs_kernel(Variant::parse("U_T_BM").unwrap())
            .to_pseudo_code()
    );
}

// ---------------------------------------------- inspector (Section VI.E)

fn ablation_inspector(cli: &Cli) {
    banner("Inspector ablation: whole-graph vs working-set degree monitoring (adaptive SSSP)");
    let header: Vec<String> = ["network", "whole_graph_ms", "working_set_ms", "overhead"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for w in load_all(cli.scale, cli.seed) {
        let whole = gpu_run(&w, Algo::Sssp, &RunOptions::default()).expect("whole-graph run");
        let tuning = AdaptiveConfig {
            degree_mode: agg_core::DegreeMode::WorkingSet,
            ..Default::default()
        };
        let wsm = gpu_run(
            &w,
            Algo::Sssp,
            &RunOptions::builder().tuning(tuning).build(),
        )
        .expect("working-set run");
        rows.push(vec![
            w.dataset.name().to_string(),
            format!("{:.2}", whole.total_ns / 1e6),
            format!("{:.2}", wsm.total_ns / 1e6),
            format!("{:+.1}%", 100.0 * (wsm.total_ns / whole.total_ns - 1.0)),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(the paper chose the whole-graph statistic precisely to avoid this overhead;");
    println!(" gains only appear when per-phase degree shifts would change the T1 decision)");
    let path = write_csv(&cli.out, "ablation_inspector", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// ---------------------------------------------- paper-scale spot checks

fn paper_spot(cli: &Cli) {
    banner("Paper-size spot checks (adaptive runtime vs serial CPU, fully timed)");
    println!("(full paper-size graphs; BFS, unordered SSSP, and the table3 ordered SSSP)\n");
    let header: Vec<String> = [
        "network",
        "nodes",
        "edges",
        "algo",
        "cpu_ms",
        "gpu_ms",
        "speedup",
        "iters",
        "sim_wall_s",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // The ordered-SSSP leg pins the paper's best ordered configuration
    // (table 3): block-mapped, queue work set.
    let ordered = Variant::parse("O_B_QU").unwrap();
    let mut rows = Vec::new();
    for d in [
        Dataset::P2p,
        Dataset::Amazon,
        Dataset::Google,
        Dataset::CoRoad,
    ] {
        let w = load(d, Scale::Paper, cli.seed);
        let jobs: [(Algo, &str, RunOptions); 3] = [
            (Algo::Bfs, "Bfs", RunOptions::default()),
            (Algo::Sssp, "Sssp", RunOptions::default()),
            (Algo::Sssp, "Sssp-ordered", RunOptions::static_variant(ordered)),
        ];
        for (algo, label, opts) in jobs {
            let cpu_ns = cpu_baseline_ns(&w, algo);
            let wall = Instant::now();
            let r = gpu_run(&w, algo, &opts).expect("paper-spot run");
            let wall_s = wall.elapsed().as_secs_f64();
            rows.push(vec![
                w.dataset.name().to_string(),
                w.graph.node_count().to_string(),
                w.graph.edge_count().to_string(),
                label.to_string(),
                format!("{:.1}", cpu_ns / 1e6),
                format!("{:.1}", r.total_ns / 1e6),
                format!("{:.2}", cpu_ns / r.total_ns),
                r.iterations.to_string(),
                format!("{wall_s:.0}"),
            ]);
            // print incrementally: these rows are slow to produce
            println!(
                "{} {label}: cpu {:.1} ms, gpu {:.1} ms, speedup {:.2} ({} iters, {:.0}s sim wall)",
                w.dataset.name(),
                cpu_ns / 1e6,
                r.total_ns / 1e6,
                cpu_ns / r.total_ns,
                r.iterations,
                wall_s
            );
        }
    }
    println!("\n{}", format_table(&header, &rows, |_| None));
    let path = write_csv(&cli.out, "paper_spot", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}

// --------------------------------------- bottom-up BFS (extension)

fn ablation_bottomup(cli: &Cli) {
    banner("Extension: direction-optimizing BFS (Beamer-style bottom-up steps)");
    let header: Vec<String> = [
        "network",
        "topdown_ms",
        "diropt_ms",
        "gain",
        "td_atomics",
        "do_atomics",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for w in load_all(cli.scale, cli.seed) {
        let mut session = Session::new(&w.graph).expect("upload");
        let top_down = session
            .run(Query::Bfs { src: w.src }, &RunOptions::default())
            .expect("top-down run");
        session.enable_bottom_up();
        let opts = RunOptions::builder()
            .strategy(Strategy::DirectionOptimized {
                bottom_up_fraction: 0.05,
            })
            .build();
        let dir_opt = session
            .run(Query::Bfs { src: w.src }, &opts)
            .expect("dir-opt run");
        assert_eq!(top_down.values, dir_opt.values, "{}", w.dataset.name());
        rows.push(vec![
            w.dataset.name().to_string(),
            format!("{:.2}", top_down.total_ns / 1e6),
            format!("{:.2}", dir_opt.total_ns / 1e6),
            format!("{:.2}x", top_down.total_ns / dir_opt.total_ns),
            top_down.gpu_stats.totals.atomics.to_string(),
            dir_opt.gpu_stats.totals.atomics.to_string(),
        ]);
    }
    println!("{}", format_table(&header, &rows, |_| None));
    println!("(bottom-up steps fire when the frontier exceeds 5% of n: unvisited nodes scan");
    println!(" in-edges, claim a parent atomic-free, and early-exit — fewer edges touched)");
    let path = write_csv(&cli.out, "ablation_bottomup", &header, &rows).unwrap();
    println!("[csv] {}", path.display());
}
