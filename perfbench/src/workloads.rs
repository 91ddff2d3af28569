//! The three workloads. Each returns its end-to-end metrics (from
//! untraced measurement) and, when traced, its per-layer metrics.

use crate::serve;
use crate::stats::{median, peak_rss_mb, secs, tail, timed_setup, Clock, Report};
use crate::sweep::{self, Inputs, Oracles, Pass, Resident, Spec};
use agg_gpu_sim::SimFidelity;
use agg_graph::{Dataset, Scale};
use agg_kernels::Variant;
use std::time::Instant;

/// Set-up is repeated this many times per run and the median reported:
/// one sample of a step this short is mostly host noise.
const SETUPS: usize = 5;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    /// The end-to-end metrics BENCHMARK.json gates.
    pub e2e: Report,
    /// End-to-end metrics printed but not gated, because their spread
    /// from run to run on a shared host exceeds any bound the benchmark
    /// may set (see perfbench/metrics.json); traced runs also report
    /// them among the per-layer metrics.
    pub reported: Report,
    pub layers: Report,
    /// Lines printed above the metric table (sample counts, lag, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            e2e: Report::default(),
            reported: Report::default(),
            layers: Report::default(),
            notes: Vec::new(),
        }
    }
}

/// Timed passes: at least `min`, then more until `seconds` of
/// measurement have passed.
fn timed_passes(
    spec: &Spec,
    inputs: &Inputs,
    oracles: &Oracles,
    seconds: f64,
    min: usize,
) -> Vec<Pass> {
    let t = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min || secs(t) < seconds {
        passes.push(sweep::run_pass(spec, inputs, oracles, false));
    }
    passes
}

/// `spec` without the static variants: the adaptive and sharded calls.
fn adaptive_only(spec: &Spec) -> Spec {
    Spec {
        statics: Vec::new(),
        ..spec.clone()
    }
}

/// The modeled-clock pin of a run with a single timed pass: the adaptive
/// and sharded cells again, untimed, which must repeat bit for bit.
fn pin_repeat(
    label: &str,
    spec: &Spec,
    inputs: &Inputs,
    oracles: &Oracles,
    passes: &[Pass],
    out: &mut Outcome,
) {
    let repeat = sweep::run_pass(&adaptive_only(spec), inputs, oracles, false);
    if !sweep::pinned(&passes[0], &repeat) {
        out.problems.push(format!(
            "{label}: the repeat's modeled time or answers differ from the timed pass"
        ));
    }
}

/// Set-up of an in-process workload: graph generation plus building the
/// sessions and sharded graphs, repeated; returns the median time and
/// the last inputs.
fn set_up(spec: &Spec, seed: u64) -> (f64, Inputs) {
    let (setup_s, (inputs, _)) = timed_setup(SETUPS, || {
        let inputs = Inputs::generate(spec, seed);
        let resident = Resident::build(spec, &inputs.graphs);
        (inputs, resident)
    });
    (setup_s, inputs)
}

/// Checks a set of passes: every answer right, every modeled number and
/// answer identical across passes.
fn check_passes(label: &str, passes: &[&Pass], out: &mut Outcome) {
    for (i, p) in passes.iter().enumerate() {
        let wrong = p.cells.iter().filter(|c| !c.correct).count();
        out.attempted += p.cells.len() as u64;
        out.failed += wrong as u64;
        if wrong > 0 {
            out.problems
                .push(format!("{label} pass {i}: {wrong} wrong answer(s)"));
        }
        if !sweep::pinned(passes[0], p) {
            out.problems.push(format!(
                "{label} pass {i}: modeled time or answers differ from pass 0"
            ));
        }
    }
}

/// The end-to-end metrics an in-process sweep reports: the modeled ones
/// from `full` (every call), the host-time ones from the `timed` passes
/// (`wall_s` as the caller measured it).
/// The callers are single queries on the simulated device, so their
/// latency and throughput are read from the modeled clock (a call's
/// `total_ns`); the host pays for them in `wall_s`.
fn sweep_e2e(
    spec: &Spec,
    full: &Pass,
    timed: &[Pass],
    wall_s: f64,
    oracles: &Oracles,
    out: &mut Outcome,
) {
    let latencies = sweep::latencies_ms(full);
    let t = tail(&latencies);
    let modeled_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let m = sweep::modeled(spec, full, oracles);
    let e = &mut out.e2e;
    e.push("latency_p50_ms", "ms", Clock::Modeled, median(&latencies));

    e.push("modeled_ms", "ms", Clock::Modeled, m.modeled_ms);
    e.push(
        "adaptive_regret",
        "ratio",
        Clock::Modeled,
        m.adaptive_regret,
    );
    e.push("speedup_vs_cpu", "ratio", Clock::Modeled, m.speedup_vs_cpu);
    e.push("shard_speedup", "ratio", Clock::Modeled, m.shard_speedup);
    let r = &mut out.reported;
    r.push("wall_s", "s", Clock::Wall, wall_s);
    r.push("latency_p99_ms", "ms", Clock::Modeled, t.value);
    r.push(
        "max_qps",
        "queries/s",
        Clock::Modeled,
        latencies.len() as f64 / modeled_s,
    );
    r.push(
        "sim_minsn_per_s",
        "M/s",
        Clock::Wall,
        sweep::sim_minsn_per_s(timed),
    );
    out.notes.push(format!(
        "{} timed pass(es); latency is per call on the modeled device clock; \
         latency_p99_ms is p{:.1} of {} calls (the highest percentile with >= 10 \
         samples beyond it)",
        timed.len(),
        t.percentile,
        t.samples
    ));
}

fn finish_e2e(out: &mut Outcome, setup_s: f64) {
    out.e2e.push("setup_s", "s", Clock::Wall, setup_s);
    out.e2e
        .push("peak_rss_mb", "MiB", Clock::None, peak_rss_mb());
}

/// Per-layer metrics every workload reports; a layer the workload does
/// not exercise reads 0.
const SERVE_LAYERS: [(&str, &str, Clock); 18] = [
    ("serve.rtt_ms", "ms", Clock::Wall),
    ("serve.rtt_request_leg_ms", "ms", Clock::Wall),
    ("serve.rtt_response_leg_ms", "ms", Clock::Wall),
    ("serve.decode_ms", "ms", Clock::Wall),
    ("serve.encode_ms", "ms", Clock::Wall),
    ("serve.cache_hit_ratio", "fraction", Clock::None),
    ("serve.cache_evicted", "count", Clock::None),
    ("serve.flush_size", "queries", Clock::None),
    ("serve.shed_frac", "fraction", Clock::None),
    ("serve.batch_hit_ms", "ms", Clock::Wall),
    ("serve.batch_exec_ms", "ms", Clock::Wall),
    ("serve.wait_ms", "ms", Clock::Wall),
    ("dynamic.apply_ms", "ms", Clock::Wall),
    ("dynamic.update_rtt_ms", "ms", Clock::Wall),
    ("dynamic.repaired_frac", "fraction", Clock::None),
    ("client.lag_ms", "ms", Clock::Wall),
    ("client.decode_ms", "ms", Clock::Wall),
    ("client.lag_p50_ms", "ms", Clock::Wall),
];

const RACE_LAYERS: [(&str, &str, Clock); 5] = [
    ("race.self_s", "s", Clock::Wall),
    ("race.host_ns_per_insn", "ns", Clock::Wall),
    ("race.launches_checked", "count", Clock::None),
    ("race.benign_words", "count", Clock::None),
    ("race.harmful_words", "count", Clock::None),
];

fn zero_layers(out: &mut Report, layers: &[(&str, &'static str, Clock)]) {
    for &(name, unit, clock) in layers {
        out.push(name, unit, clock, 0.0);
    }
}

/// The traced pass: the engine records its per-iteration trace on every
/// run. Its modeled numbers must equal the untraced passes', and its
/// extra host time is the tracing overhead.
fn traced_pass(
    label: &str,
    spec: &Spec,
    inputs: &Inputs,
    oracles: &Oracles,
    untraced: &Pass,
    out: &mut Outcome,
) -> Pass {
    let pass = sweep::run_pass(spec, inputs, oracles, true);
    if !sweep::pinned(untraced, &pass) {
        out.problems.push(format!(
            "{label}: the traced pass's modeled time or answers differ from the untraced one"
        ));
    }
    out.layers.push(
        "trace.overhead_frac",
        "fraction",
        Clock::Wall,
        pass.wall_s / untraced.wall_s - 1.0,
    );
    pass
}

fn sweep_layers(spec: &Spec, pass: &Pass, oracles: &Oracles, generate_s: f64, out: &mut Outcome) {
    let m = sweep::modeled(spec, pass, oracles);
    sweep::layer_metrics(pass, &m, &mut out.layers);
    out.layers
        .push("graph.generate_s", "s", Clock::Wall, generate_s);
    out.layers
        .push("cpu.oracle_s", "s", Clock::Wall, oracles.wall_s);
}

/// Adds the failure share to the ungated end-to-end metrics and copies
/// them into the per-layer ones.
fn failure_layers(out: &mut Outcome) {
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.reported
        .push("failed_frac", "fraction", Clock::None, frac);
    for m in &out.reported.metrics {
        out.layers
            .push(format!("e2e.{}", m.name), m.unit, m.clock, m.value);
    }
}

/// `paper-small`: the paper's experiment in-process at small scale.
pub fn paper_small(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let spec = Spec {
        scale: Scale::Small,
        datasets: vec![
            Dataset::CoRoad,
            Dataset::CiteSeer,
            Dataset::P2p,
            Dataset::Amazon,
            Dataset::Google,
        ],
        sources: vec![0],
        statics: Variant::UNORDERED.to_vec(),
        sharded: vec![Dataset::CiteSeer, Dataset::Google],
        fidelity: SimFidelity::Timed,
    };
    let (setup_s, inputs) = set_up(&spec, seed);
    let oracles = Oracles::compute(&spec, &inputs);
    // Every call once, then the adaptive and sharded calls (what a user of
    // the runtime runs) at least twice more: each has three executions,
    // whose median is its host time, and every repeat must reproduce the
    // modeled times exactly.
    let full = sweep::run_pass(&spec, &inputs, &oracles, false);
    let timed = timed_passes(&adaptive_only(&spec), &inputs, &oracles, seconds, 2);
    let all: Vec<&Pass> = std::iter::once(&full).chain(&timed).collect();
    check_passes("paper-small", &all, &mut out);
    let wall_s = sweep::median_call_wall(&all, &timed[0]);
    sweep_e2e(&spec, &full, &timed, wall_s, &oracles, &mut out);
    finish_e2e(&mut out, setup_s);
    if traced {
        let pass = traced_pass("paper-small", &spec, &inputs, &oracles, &full, &mut out);
        sweep_layers(&spec, &pass, &oracles, inputs.generate_s, &mut out);
        zero_layers(&mut out.layers, &SERVE_LAYERS);
        zero_layers(&mut out.layers, &RACE_LAYERS);
    }
    failure_layers(&mut out);
    out
}

/// `race-check`: every Table-1 analog at tiny scale under the race
/// analyzer, against a `Timed` leg of the same runs.
pub fn race_check(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let spec = |fidelity| Spec {
        scale: Scale::Tiny,
        datasets: Dataset::ALL.to_vec(),
        sources: vec![0],
        statics: Variant::ALL.to_vec(),
        sharded: Dataset::ALL.to_vec(),
        fidelity,
    };
    let races = spec(SimFidelity::TimedWithRaces);
    let timed = spec(SimFidelity::Timed);
    let (setup_s, inputs) = set_up(&races, seed);
    let oracles = Oracles::compute(&races, &inputs);
    let timed_pass = sweep::run_pass(&timed, &inputs, &oracles, false);
    let passes = timed_passes(&races, &inputs, &oracles, seconds, 1);
    check_passes("race-check", &passes.iter().collect::<Vec<_>>(), &mut out);
    // The fidelity contract: race analysis never changes modeled time or
    // answers.
    if !sweep::pinned(&passes[0], &timed_pass) {
        out.problems
            .push("race-check: TimedWithRaces modeled time or answers differ from Timed".into());
    }
    for (i, p) in passes.iter().enumerate() {
        let r = sweep::race_totals(p);
        if r.harmful_words > 0 {
            out.failed += 1;
            out.problems.push(format!(
                "race-check pass {i}: {} harmful racing word(s)",
                r.harmful_words
            ));
        }
        if r.launches_checked == 0 {
            out.problems.push(format!(
                "race-check pass {i}: the race analyzer checked no launch"
            ));
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    sweep_e2e(
        &races,
        &passes[0],
        &passes,
        median(&walls),
        &oracles,
        &mut out,
    );
    finish_e2e(&mut out, setup_s);
    out.notes.push(format!(
        "race analyzer: {:.2} s per pass under TimedWithRaces vs {:.2} s under Timed",
        median(&walls),
        timed_pass.wall_s
    ));
    if traced {
        let pass = traced_pass(
            "race-check",
            &races,
            &inputs,
            &oracles,
            &passes[0],
            &mut out,
        );
        sweep_layers(&races, &pass, &oracles, inputs.generate_s, &mut out);
        zero_layers(&mut out.layers, &SERVE_LAYERS);
        let r = sweep::race_totals(&pass);
        let self_s = median(&walls) - timed_pass.wall_s;
        let (insns, _) = sweep::sim_rate(&pass);
        let l = &mut out.layers;
        l.push("race.self_s", "s", Clock::Wall, self_s);
        l.push(
            "race.host_ns_per_insn",
            "ns",
            Clock::Wall,
            self_s * 1e9 / insns.max(1) as f64,
        );
        l.push(
            "race.launches_checked",
            "count",
            Clock::None,
            r.launches_checked as f64,
        );
        l.push(
            "race.benign_words",
            "count",
            Clock::None,
            r.benign_words as f64,
        );
        l.push(
            "race.harmful_words",
            "count",
            Clock::None,
            r.harmful_words as f64,
        );
    }
    failure_layers(&mut out);
    out
}

/// One open-loop segment on a fresh server, with the `Stats` deltas
/// over it when traced.
struct Segment {
    phase: serve::Phase,
    stats: Option<(agg_serve::ServeStats, agg_serve::ServeStats)>,
}

/// A fresh server, warmed up with the trace's distinct queries, then
/// the trace at `rate`.
fn segment(seed: u64, k: u64, rate: f64, traced: bool, setups: &mut Vec<f64>) -> Segment {
    let base = serve::graphs(seed);
    let trace = serve::trace(seed, k);
    let mut warmup = serve::Load::warmup(&trace, &base);
    let mut load = serve::Load::new(&trace, &base);
    let (server, setup_s, _) = serve::start(seed);
    setups.push(setup_s);
    let addr = server.addr();
    let warm = serve::open_loop(addr, &mut warmup, rate, false);
    let before = traced.then(|| serve::server_stats(addr));
    let mut phase = serve::open_loop(addr, &mut load, rate, traced);
    let stats = before.map(|b| (b, serve::server_stats(addr)));
    server.shutdown();
    phase.wrong += warm.wrong;
    phase.failed += warm.failed;
    phase.requests += warm.requests;
    Segment { phase, stats }
}

/// `serve-mixed`: a live server under an open-loop mixed load.
pub fn serve_mixed(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let base = serve::graphs(seed);

    // Set-up: graph generation, `Hosted::new` and `Server::start`. Every
    // segment starts its own server; these extra starts make sure the
    // median has several samples.
    let mut setups = Vec::new();
    let mut generates = Vec::new();
    for _ in 0..SETUPS {
        let (server, setup_s, generate_s) = serve::start(seed);
        server.shutdown();
        setups.push(setup_s);
        generates.push(generate_s);
    }

    // The modeled cost of the served mix: the sweep of the hosted graphs
    // over the trace's source pool, run before any live traffic.
    let spec = Spec {
        scale: serve::SCALE,
        datasets: serve::HOSTED.iter().map(|(d, _)| *d).collect(),
        sources: (0..serve::SOURCE_POOL).collect(),
        statics: Variant::UNORDERED.to_vec(),
        sharded: serve::HOSTED.iter().map(|(d, _)| *d).collect(),
        fidelity: SimFidelity::Timed,
    };
    let inputs = Inputs {
        graphs: spec
            .datasets
            .iter()
            .copied()
            .zip(base.iter().cloned())
            .collect(),
        generate_s: median(&generates),
    };
    let oracles = Oracles::compute(&spec, &inputs);
    let passes = vec![sweep::run_pass(&spec, &inputs, &oracles, false)];
    check_passes("serve-mixed sweep", &[&passes[0]], &mut out);
    pin_repeat(
        "serve-mixed sweep",
        &spec,
        &inputs,
        &oracles,
        &passes,
        &mut out,
    );
    out.notes.push(format!(
        "sweep of the served mix: {} calls in {:.2} s",
        passes[0].cells.len(),
        passes[0].wall_s
    ));

    // Main phase: segments at the main rate until `seconds` have passed.
    let t = Instant::now();
    let mut main = serve::Phase::default();
    let mut segments = 0u64;
    while segments == 0 || secs(t) < seconds {
        let seg = segment(seed, segments, serve::MAIN_RATE, false, &mut setups);
        main.absorb(seg.phase);
        segments += 1;
    }
    out.attempted += main.requests as u64;
    out.failed += main.failed as u64;

    // The max_qps ladder: the main rate, then fixed higher rates, each
    // re-sending the first segment's trace to a fresh server. The ladder's
    // sheds decide its rungs; they are not failures of the run.
    let mut max_qps = if main.holds() { main.goodput() } else { 0.0 };
    let mut wrong = main.wrong;
    let mut ladder_notes = Vec::new();
    for rate in serve::LADDER {
        let rung = segment(seed, 0, rate, false, &mut setups).phase;
        wrong += rung.wrong;
        let tl = rung.tail();
        ladder_notes.push(format!(
            "  rung {rate:>5.0} queries/s: p50 {:.1} ms, p{:.1} {:.1} ms, {} shed -> {}",
            median(&rung.latencies_ms),
            tl.percentile,
            tl.value,
            rung.shed,
            if rung.holds() {
                "holds"
            } else {
                "misses the limit"
            }
        ));
        if rung.holds() {
            max_qps = max_qps.max(rung.goodput());
        }
    }
    if wrong > 0 {
        out.problems
            .push(format!("serve-mixed: {wrong} wrong answer(s)"));
    }

    let answered = main.answered_ms();
    let tl = tail(&answered);
    let m = sweep::modeled(&spec, &passes[0], &oracles);
    let e = &mut out.e2e;
    e.push("latency_p50_ms", "ms", Clock::Wall, median(&answered));
    out.reported
        .push("latency_p99_ms", "ms", Clock::Wall, tl.value);
    out.reported
        .push("max_qps", "queries/s", Clock::Wall, max_qps);
    out.reported.push("wall_s", "s", Clock::Wall, main.wall_s);
    out.reported.push(
        "sim_minsn_per_s",
        "M/s",
        Clock::Wall,
        sweep::sim_minsn_per_s(&passes),
    );
    e.push("modeled_ms", "ms", Clock::Modeled, m.modeled_ms);
    e.push(
        "adaptive_regret",
        "ratio",
        Clock::Modeled,
        m.adaptive_regret,
    );
    e.push("speedup_vs_cpu", "ratio", Clock::Modeled, m.speedup_vs_cpu);
    e.push("shard_speedup", "ratio", Clock::Modeled, m.shard_speedup);
    finish_e2e(&mut out, median(&setups));
    out.notes.push(format!(
        "main phase: {segments} segment(s) of {} queries at {} queries/s offered (open \
         loop, Poisson), each on a fresh server whose result cache starts empty and is \
         warmed with the trace's distinct queries before measurement; \
         latency_p99_ms is p{:.1} of {} answered; {} shed, {} errors, {} timed out, {} \
         wrong; generator lag p50 {:.3} ms, p99 {:.3} ms",
        serve::SEGMENT_QUERIES,
        serve::MAIN_RATE,
        tl.percentile,
        tl.samples,
        main.shed,
        main.errors,
        main.timed_out,
        main.wrong,
        median(&main.lag_ms),
        tail(&main.lag_ms).value
    ));
    out.notes.push(format!(
        "max_qps ladder (tail limit {} ms): main rate {} queries/s {}",
        serve::TAIL_LIMIT_MS,
        serve::MAIN_RATE,
        if main.holds() {
            "holds"
        } else {
            "misses the limit"
        }
    ));
    out.notes.extend(ladder_notes);

    if traced {
        traced_serve(seed, &main, &mut setups, &mut out);
        sweep_layers(&spec, &passes[0], &oracles, median(&generates), &mut out);
        zero_layers(&mut out.layers, &RACE_LAYERS);
    }
    failure_layers(&mut out);
    out
}

/// The traced part of `serve-mixed`: a transport-floor probe, one traced
/// segment with `Stats` snapshots around it, and an in-process replay of
/// the same requests for the service thread's self time.
fn traced_serve(seed: u64, untraced: &serve::Phase, setups: &mut Vec<f64>, out: &mut Outcome) {
    let base = serve::graphs(seed);
    let (server, _, _) = serve::start(seed);
    let rtt = serve::stats_rtt(server.addr(), 20);
    server.shutdown();
    let seg = segment(seed, 0, serve::MAIN_RATE, true, setups);
    let phase = seg.phase;
    let stats: Vec<_> = seg.stats.into_iter().collect();
    let trace = serve::trace(seed, 0);
    let replay = serve::replay(
        &mut serve::Load::warmup(&trace, &base),
        &mut serve::Load::new(&trace, &base),
        seed,
    );
    if replay.wrong > 0 || phase.wrong > 0 {
        out.problems.push(format!(
            "serve-mixed: {} wrong answer(s) in the traced segments, {} in the replay",
            phase.wrong, replay.wrong
        ));
    }
    let l = &mut out.layers;
    l.push(
        "trace.overhead_frac",
        "fraction",
        Clock::Wall,
        median(&phase.latencies_ms) / median(&untraced.latencies_ms) - 1.0,
    );
    l.push("serve.rtt_ms", "ms", Clock::Wall, rtt.rtt_ms);
    l.push(
        "serve.rtt_request_leg_ms",
        "ms",
        Clock::Wall,
        rtt.request_leg_ms,
    );
    l.push(
        "serve.rtt_response_leg_ms",
        "ms",
        Clock::Wall,
        rtt.response_leg_ms,
    );
    l.push(
        "serve.decode_ms",
        "ms",
        Clock::Wall,
        median(&replay.decode_ms),
    );
    l.push(
        "serve.encode_ms",
        "ms",
        Clock::Wall,
        median(&replay.encode_ms),
    );
    serve::stats_metrics(&stats, l);
    l.push(
        "serve.batch_hit_ms",
        "ms",
        Clock::Wall,
        median(&replay.batch_hit_ms),
    );
    l.push(
        "serve.batch_exec_ms",
        "ms",
        Clock::Wall,
        median(&replay.batch_exec_ms),
    );
    l.push(
        "serve.wait_ms",
        "ms",
        Clock::Wall,
        median(&phase.latencies_ms) - median(&replay.service_ms),
    );
    l.push(
        "dynamic.apply_ms",
        "ms",
        Clock::Wall,
        median(&replay.apply_ms),
    );
    l.push(
        "dynamic.update_rtt_ms",
        "ms",
        Clock::Wall,
        median(&phase.update_rtt_ms),
    );
    l.push(
        "dynamic.repaired_frac",
        "fraction",
        Clock::None,
        phase.repaired as f64 / (phase.repaired + phase.invalidated).max(1) as f64,
    );
    l.push(
        "client.lag_ms",
        "ms",
        Clock::Wall,
        tail(&phase.lag_ms).value,
    );
    l.push(
        "client.decode_ms",
        "ms",
        Clock::Wall,
        median(&phase.decode_ms),
    );
    l.push(
        "client.lag_p50_ms",
        "ms",
        Clock::Wall,
        median(&phase.lag_ms),
    );
}
