//! Dynamic-graph differential fuzzing and the recompute-vs-incremental
//! crossover benchmark.
//!
//! The static harness ([`crate::differential`]) pins every execution
//! configuration to the CPU oracles on immutable graphs. This module is
//! its batch-dynamic twin: the same adversarial corpus, but each case
//! now *mutates* under a stream of random insert/delete batches, and
//! every mutation is checked four ways against the from-scratch CPU
//! recompute on the updated graph (the unique fixpoint, hence the single
//! source of truth):
//!
//! 1. **gpu-fresh** — a cold run on the updated snapshot (the static
//!    harness's check, re-established after every mutation);
//! 2. **cpu-incremental** — [`cpu_apply_plan`] executing whatever
//!    [`plan_repair`] decided (serve unchanged / warm repair / recompute)
//!    on the CPU oracle;
//! 3. **plan-unchanged** — when the planner says the old fixpoint still
//!    stands, it must literally equal the new one;
//! 4. **gpu-warm** — when the planner picks incremental repair, the
//!    GPU's warm-start path ([`Session::run_warm`]) must land on the
//!    same fixpoint bit-for-bit.
//!
//! Any divergence is ddmin-shrunk over the *update sequence* with
//! [`minimize_updates`] (the dynamic analog of the graph-level edge
//! minimizer), so the regression test a bug earns is a handful of typed
//! updates, not a 60-node trace.
//!
//! [`crossover`] prices the Figure-11-style decision the serving layer
//! makes: for growing insert batches against one graph, the modeled
//! nanoseconds of warm repair vs cold recompute, and the first batch
//! size at which repair stops winning (by cost or by the planner's own
//! fallback). `repro dynamic` drives both and writes
//! `BENCH_dynamic.json`.

use crate::differential::{case_graph_weighted, mismatches, CaseGraph};
use agg_core::{Query, RunOptions, Session};
use agg_cpu::CpuCostModel;
use agg_dynamic::{
    cpu_apply_plan, minimize_updates, plan_repair, random_batch, ApplyOutcome, DynamicGraph,
    EdgeUpdate, RepairKind, RepairPlan, UpdateBatch,
};
use agg_gpu_sim::{DeviceConfig, Json, SimFidelity};
use agg_graph::{CsrGraph, NodeId, INF};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a dynamic fuzzing run.
#[derive(Debug, Clone)]
pub struct DynFuzzConfig {
    /// Number of corpus graphs (drawn from the shared differential
    /// corpus, so all six generators and their degenerate features
    /// appear).
    pub cases: usize,
    /// Update batches applied to each case graph.
    pub rounds: usize,
    /// Updates per batch.
    pub update_size: usize,
    /// Corpus + update-stream seed: the run is deterministic in
    /// (`cases`, `rounds`, `update_size`, `seed`).
    pub seed: u64,
}

impl DynFuzzConfig {
    /// Defaults: 4 rounds of 6-update batches per case.
    pub fn new(cases: usize, seed: u64) -> DynFuzzConfig {
        DynFuzzConfig {
            cases,
            rounds: 4,
            update_size: 6,
            seed,
        }
    }
}

/// One confirmed difference between an incremental result and the
/// from-scratch recompute on the updated graph.
#[derive(Debug, Clone)]
pub struct DynDivergence {
    /// Corpus case index.
    pub case: usize,
    /// Update round within the case.
    pub round: usize,
    /// Generator that produced the base graph.
    pub generator: String,
    /// Algorithm that diverged (`bfs` / `sssp` / `cc`).
    pub algo: String,
    /// Which check failed (`gpu-fresh`, `cpu-incremental`,
    /// `plan-unchanged`, `gpu-warm`).
    pub lane: String,
    /// Node count of the updated graph.
    pub nodes: usize,
    /// Edge count of the updated graph.
    pub edges: usize,
    /// Query source.
    pub src: NodeId,
    /// Engine error, when the run failed outright instead of
    /// mis-answering.
    pub error: Option<String>,
    /// Indices where expected and actual differ (capped at 16).
    pub mismatched_at: Vec<usize>,
    /// ddmin-shrunk update subsequence that still reproduces the
    /// divergence from the pre-batch graph (empty for error lanes).
    pub minimized_updates: Vec<EdgeUpdate>,
}

impl DynDivergence {
    /// This divergence as a JSON object (the CI artifact element).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("case", self.case.into()),
            ("round", self.round.into()),
            ("generator", self.generator.as_str().into()),
            ("algo", self.algo.as_str().into()),
            ("lane", self.lane.as_str().into()),
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
            (
                "minimized_updates",
                Json::arr(self.minimized_updates.iter().map(update_json)),
            ),
        ])
    }
}

fn update_json(u: &EdgeUpdate) -> Json {
    match *u {
        EdgeUpdate::Insert { src, dst, weight } => Json::obj([
            ("op", "insert".into()),
            ("src", src.into()),
            ("dst", dst.into()),
            ("w", weight.into()),
        ]),
        EdgeUpdate::Delete { src, dst } => Json::obj([
            ("op", "delete".into()),
            ("src", src.into()),
            ("dst", dst.into()),
        ]),
    }
}

/// The outcome of a dynamic fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct DynFuzzReport {
    /// Corpus graphs mutated.
    pub cases: usize,
    /// Update batches that changed a graph (and bumped its epoch).
    pub rounds_applied: u64,
    /// Update batches whose net effect was empty (typed no-ops).
    pub rounds_noop: u64,
    /// Individual `(algorithm, lane)` comparisons made.
    pub checks: u64,
    /// Plans that served the old fixpoint unchanged.
    pub plans_unchanged: u64,
    /// Plans that warm-repaired incrementally.
    pub plans_incremental: u64,
    /// Plans that fell back to recompute.
    pub plans_recompute: u64,
    /// GPU warm-start runs executed (one per incremental plan).
    pub warm_runs: u64,
    /// Delta-buffer compactions triggered across the corpus.
    pub compactions: u64,
    /// Confirmed divergences (empty on a healthy tree).
    pub divergences: Vec<DynDivergence>,
}

impl DynFuzzReport {
    /// True when every incremental result matched its recompute.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// This report as a JSON object (the CI artifact).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cases", self.cases.into()),
            ("rounds_applied", self.rounds_applied.into()),
            ("rounds_noop", self.rounds_noop.into()),
            ("checks", self.checks.into()),
            ("plans_unchanged", self.plans_unchanged.into()),
            ("plans_incremental", self.plans_incremental.into()),
            ("plans_recompute", self.plans_recompute.into()),
            ("warm_runs", self.warm_runs.into()),
            ("compactions", self.compactions.into()),
            ("clean", Json::Bool(self.is_clean())),
            (
                "divergences",
                Json::arr(self.divergences.iter().map(DynDivergence::to_json)),
            ),
        ])
    }
}

/// The three repairable algorithms the dynamic matrix checks.
const KINDS: [(RepairKind, &str); 3] = [
    (RepairKind::Bfs, "bfs"),
    (RepairKind::Sssp, "sssp"),
    (RepairKind::Cc, "cc"),
];

fn query_for(kind: RepairKind, src: NodeId) -> Query {
    match kind {
        RepairKind::Bfs => Query::Bfs { src },
        RepairKind::Sssp => Query::Sssp { src },
        RepairKind::Cc => Query::Cc,
    }
}

/// Replays `updates` from `before` and returns the updated snapshot with
/// its net effect, or `None` when the batch is invalid (the minimizer
/// treats that as "does not reproduce").
fn replay_updates(before: &CsrGraph, updates: &[EdgeUpdate]) -> Option<(CsrGraph, ApplyOutcome)> {
    let mut dg = DynamicGraph::new(before.clone());
    let out = dg.apply(&UpdateBatch::from_updates(updates.to_vec())).ok()?;
    let snap = dg.snapshot().ok()?.clone();
    Some((snap, out))
}

/// The expected fixpoint: a from-scratch CPU recompute on `g`.
fn truth(g: &CsrGraph, kind: RepairKind, src: NodeId, model: &CpuCostModel) -> Vec<u32> {
    agg_cpu::recompute(g, kind.relax(), src, model).result
}

/// Runs the dynamic differential matrix over the corpus. Deterministic
/// in `cfg`; returns every confirmed (and update-minimized) divergence
/// rather than panicking, so callers can write artifacts before failing.
pub fn dyn_fuzz(cfg: &DynFuzzConfig) -> DynFuzzReport {
    let mut report = DynFuzzReport {
        cases: cfg.cases,
        ..DynFuzzReport::default()
    };
    let model = CpuCostModel::default();
    let opts = RunOptions::default();
    let device = || {
        DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::Functional)
    };
    for case in 0..cfg.cases {
        let CaseGraph {
            graph,
            generator,
            src,
        } = case_graph_weighted(cfg.seed, case, 16);
        let n = graph.node_count() as u32;
        if n == 0 {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(
            cfg.seed ^ 0xD15_C0DE ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Deletes draw from the ledger; pre-seeding it with the base
        // edges lets the stream delete *original* edges (the affecting-
        // delete checks), not only its own inserts.
        let mut ledger: Vec<(NodeId, NodeId)> =
            graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut dg = DynamicGraph::new(graph);
        let mut session = match Session::with_device(dg.snapshot().expect("base snapshot"), device())
        {
            Ok(s) => s,
            Err(e) => {
                report.divergences.push(DynDivergence {
                    case,
                    round: 0,
                    generator: generator.into(),
                    algo: "session".into(),
                    lane: "setup".into(),
                    nodes: n as usize,
                    edges: 0,
                    src,
                    error: Some(e.to_string()),
                    mismatched_at: Vec::new(),
                    minimized_updates: Vec::new(),
                });
                continue;
            }
        };
        for round in 0..cfg.rounds {
            let before = dg.snapshot().expect("pre-batch snapshot").clone();
            // Pre-batch fixpoints, one per algorithm, from the live session.
            let mut old = Vec::with_capacity(KINDS.len());
            for &(kind, _) in &KINDS {
                match session.run(query_for(kind, src), &opts) {
                    Ok(r) => old.push(r.values),
                    Err(e) => {
                        report.divergences.push(error_divergence(
                            case, round, generator, kind, &before, src, e.to_string(), "gpu-fresh",
                        ));
                        old.push(Vec::new());
                    }
                }
            }
            let batch = random_batch(&mut rng, n, cfg.update_size, true, &mut ledger);
            let out = match dg.apply(&batch) {
                Ok(out) => out,
                Err(e) => {
                    report.divergences.push(error_divergence(
                        case, round, generator, RepairKind::Bfs, &before, src,
                        format!("apply failed: {e}"), "apply",
                    ));
                    continue;
                }
            };
            if !out.bumped {
                report.rounds_noop += 1;
                continue;
            }
            report.rounds_applied += 1;
            if out.compacted {
                report.compactions += 1;
            }
            let snap = dg.snapshot().expect("post-batch snapshot").clone();
            if let Err(e) = session.reload_graph(&snap) {
                report.divergences.push(error_divergence(
                    case, round, generator, RepairKind::Bfs, &snap, src,
                    format!("reload failed: {e}"), "reload",
                ));
                continue;
            }
            let (sn, sm) = (snap.node_count(), snap.edge_count());
            let avg_deg = sm as f64 / sn.max(1) as f64;
            for (&(kind, algo), old) in KINDS.iter().zip(&old) {
                if old.is_empty() {
                    continue;
                }
                let expected = truth(&snap, kind, src, &model);
                // Builds (but does not push) a value-mismatch divergence,
                // ddmin-shrinking the batch for the failing lane.
                let mk_fail = |lane: &str, actual: &[u32]| -> DynDivergence {
                    let minimized = minimize_for_lane(
                        lane, &before, old, kind, src, &model, &batch.updates, &opts,
                    );
                    DynDivergence {
                        case,
                        round,
                        generator: generator.into(),
                        algo: algo.into(),
                        lane: lane.into(),
                        nodes: sn,
                        edges: sm,
                        src,
                        error: None,
                        mismatched_at: mismatches(&expected, actual),
                        minimized_updates: minimized,
                    }
                };
                // Lane 1: cold GPU run on the updated snapshot.
                report.checks += 1;
                match session.run(query_for(kind, src), &opts) {
                    Ok(r) if r.values == expected => {}
                    Ok(r) => report.divergences.push(mk_fail("gpu-fresh", &r.values)),
                    Err(e) => report.divergences.push(error_divergence(
                        case, round, generator, kind, &snap, src, e.to_string(), "gpu-fresh",
                    )),
                }
                // Lane 2: the CPU oracle executing the planner's decision.
                let plan = plan_repair(kind, old, &out.added, &out.removed, sn, sm, avg_deg);
                match plan {
                    RepairPlan::Unchanged => report.plans_unchanged += 1,
                    RepairPlan::Incremental { .. } => report.plans_incremental += 1,
                    RepairPlan::Recompute { .. } => report.plans_recompute += 1,
                }
                report.checks += 1;
                let oracle = cpu_apply_plan(&snap, kind, old, &plan, src, &model);
                if oracle != expected {
                    report.divergences.push(mk_fail("cpu-incremental", &oracle));
                }
                // Lane 3: "unchanged" must mean exactly that.
                if plan == RepairPlan::Unchanged {
                    report.checks += 1;
                    if old != &expected {
                        report.divergences.push(mk_fail("plan-unchanged", old));
                    }
                }
                // Lane 4: the GPU warm-start path on incremental plans.
                if matches!(plan, RepairPlan::Incremental { .. }) {
                    report.checks += 1;
                    report.warm_runs += 1;
                    match session.run_warm(query_for(kind, src), &opts, old, &out.added) {
                        Ok(r) if r.values == expected => {}
                        Ok(r) => report.divergences.push(mk_fail("gpu-warm", &r.values)),
                        Err(e) => report.divergences.push(error_divergence(
                            case, round, generator, kind, &snap, src, e.to_string(), "gpu-warm",
                        )),
                    }
                }
            }
        }
    }
    report
}

/// ddmin over the batch's update sequence for the failing lane: replay a
/// candidate subsequence from the pre-batch graph, re-evaluate just that
/// lane, keep shrinking while it still diverges.
#[allow(clippy::too_many_arguments)]
fn minimize_for_lane(
    lane: &str,
    before: &CsrGraph,
    old: &[u32],
    kind: RepairKind,
    src: NodeId,
    model: &CpuCostModel,
    updates: &[EdgeUpdate],
    opts: &RunOptions,
) -> Vec<EdgeUpdate> {
    let device = DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::Functional);
    let fails = |cand: &[EdgeUpdate]| -> bool {
        let Some((snap, out)) = replay_updates(before, cand) else {
            return false;
        };
        let expected = truth(&snap, kind, src, model);
        let (sn, sm) = (snap.node_count(), snap.edge_count());
        let avg = sm as f64 / sn.max(1) as f64;
        let plan = plan_repair(kind, old, &out.added, &out.removed, sn, sm, avg);
        match lane {
            "gpu-fresh" => Session::with_device(&snap, device.clone())
                .and_then(|mut s| s.run(query_for(kind, src), opts))
                .map(|r| r.values != expected)
                .unwrap_or(true),
            "cpu-incremental" => cpu_apply_plan(&snap, kind, old, &plan, src, model) != expected,
            "plan-unchanged" => plan == RepairPlan::Unchanged && old != expected.as_slice(),
            "gpu-warm" => {
                if !matches!(plan, RepairPlan::Incremental { .. }) {
                    return false;
                }
                Session::with_device(&snap, device.clone())
                    .and_then(|mut s| s.run_warm(query_for(kind, src), opts, old, &out.added))
                    .map(|r| r.values != expected)
                    .unwrap_or(true)
            }
            _ => false,
        }
    };
    if !fails(updates) {
        // The divergence does not reproduce from a clean replay (e.g. it
        // needed accumulated session state): report the whole batch.
        return updates.to_vec();
    }
    minimize_updates(updates, fails)
}

#[allow(clippy::too_many_arguments)]
fn error_divergence(
    case: usize,
    round: usize,
    generator: &str,
    kind: RepairKind,
    g: &CsrGraph,
    src: NodeId,
    error: String,
    lane: &str,
) -> DynDivergence {
    let algo = KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, a)| *a)
        .unwrap_or("bfs");
    DynDivergence {
        case,
        round,
        generator: generator.into(),
        algo: algo.into(),
        lane: lane.into(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        src,
        error: Some(error),
        mismatched_at: Vec::new(),
        minimized_updates: Vec::new(),
    }
}

// ------------------------------------------------------------- Crossover

/// One measured point of the crossover sweep.
#[derive(Debug, Clone)]
pub struct CrossoverPoint {
    /// Algorithm (`bfs` / `sssp` / `cc`).
    pub algo: String,
    /// Insert-batch size applied before measuring.
    pub batch_size: usize,
    /// Seed improvements the planner found.
    pub seeds: usize,
    /// The planner's decision (`unchanged` / `incremental` / `recompute`).
    pub plan: String,
    /// Modeled time of a cold run on the updated graph, ns.
    pub fresh_ns: f64,
    /// Modeled time of the warm-repair run, ns (absent when the planner
    /// did not pick incremental).
    pub warm_ns: Option<f64>,
}

impl CrossoverPoint {
    /// Cold time over warm time (> 1 means repair wins).
    pub fn speedup(&self) -> Option<f64> {
        self.warm_ns.map(|w| self.fresh_ns / w.max(1e-9))
    }

    /// This point as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("algo", self.algo.as_str().into()),
            ("batch_size", self.batch_size.into()),
            ("seeds", self.seeds.into()),
            ("plan", self.plan.as_str().into()),
            ("fresh_ns", self.fresh_ns.into()),
            (
                "warm_ns",
                match self.warm_ns {
                    Some(w) => w.into(),
                    None => Json::Null,
                },
            ),
            (
                "speedup",
                match self.speedup() {
                    Some(s) => s.into(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The crossover sweep's outcome.
#[derive(Debug, Clone, Default)]
pub struct CrossoverReport {
    /// Every measured `(algo, batch size)` point.
    pub rows: Vec<CrossoverPoint>,
    /// Per algorithm: the first swept batch size at which incremental
    /// repair stopped winning — because warm modeled time met or
    /// exceeded cold, or because the planner itself fell back — and
    /// `None` when repair won at every swept size.
    pub crossover_at: Vec<(String, Option<usize>)>,
    /// Whether every warm result matched its cold recompute bit-for-bit.
    pub identity_ok: bool,
}

impl CrossoverReport {
    /// This report as a JSON object (the `BENCH_dynamic.json` payload).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("identity_ok", Json::Bool(self.identity_ok)),
            (
                "crossover_at",
                Json::arr(self.crossover_at.iter().map(|(algo, at)| {
                    Json::obj([
                        ("algo", algo.as_str().into()),
                        (
                            "batch_size",
                            match at {
                                Some(k) => Json::from(*k),
                                None => Json::Null,
                            },
                        ),
                    ])
                })),
            ),
            ("rows", Json::arr(self.rows.iter().map(CrossoverPoint::to_json))),
        ])
    }
}

/// Batch sizes the sweep measures for a graph with `m` edges: fixed
/// small sizes where repair should win, then fractions of `m` where the
/// planner's cost estimate must eventually fall back to recompute.
pub fn sweep_sizes(m: usize) -> Vec<usize> {
    let mut sizes = vec![1, 2, 4, 8, 16, 32, 64];
    for frac in [m / 8, m / 4, m / 2, m] {
        if frac > 0 {
            sizes.push(frac);
        }
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Measures recompute-vs-incremental modeled time on `base` for each
/// insert-batch size in `sizes` (see [`sweep_sizes`]), per repairable
/// algorithm. Each point starts from the pristine base graph, applies
/// one batch of inserts whose sources are drawn from nodes the old
/// fixpoint reached (hot-region updates — the case warm repair exists
/// for), and times a cold run vs the warm-repair run on the same
/// simulated device. Warm values are verified bit-identical to cold
/// before any time is reported.
pub fn crossover(base: &CsrGraph, seed: u64, sizes: &[usize]) -> CrossoverReport {
    let mut report = CrossoverReport {
        identity_ok: true,
        ..CrossoverReport::default()
    };
    let n = base.node_count() as u32;
    if n == 0 {
        report.identity_ok = false;
        return report;
    }
    for &(kind, algo) in &KINDS {
        let query = query_for(kind, 0);
        let mut first_loss: Option<usize> = None;
        for &k in sizes {
            let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64) << 8) ^ (algo.len() as u64));
            let mut dg = DynamicGraph::new(base.clone());
            let mut session =
                Session::with_device(dg.snapshot().expect("base snapshot"), DeviceConfig::tesla_c2070())
                    .expect("crossover session");
            let opts = RunOptions::default();
            let old = session.run(query, &opts).expect("crossover warmup").values;
            let reached: Vec<u32> = (0..n).filter(|&v| old[v as usize] != INF).collect();
            if reached.is_empty() {
                break;
            }
            let mut batch = UpdateBatch::new();
            for _ in 0..k {
                let u = reached[rng.gen_range(0..reached.len())];
                let v = rng.gen_range(0..n);
                batch.insert(u, v, 1 + rng.gen_range(0u32..16));
            }
            let out = dg.apply(&batch).expect("crossover apply");
            if !out.bumped {
                continue;
            }
            let snap = dg.snapshot().expect("crossover snapshot").clone();
            session.reload_graph(&snap).expect("crossover reload");
            let (sn, sm) = (snap.node_count(), snap.edge_count());
            let plan = plan_repair(
                kind,
                &old,
                &out.added,
                &out.removed,
                sn,
                sm,
                sm as f64 / sn.max(1) as f64,
            );
            let fresh = session.run(query, &opts).expect("crossover cold run");
            let (seeds, plan_name) = match &plan {
                RepairPlan::Unchanged => (0, "unchanged"),
                RepairPlan::Incremental { seeds } => (seeds.len(), "incremental"),
                RepairPlan::Recompute { .. } => (0, "recompute"),
            };
            let warm_ns = if matches!(plan, RepairPlan::Incremental { .. }) {
                let warm = session
                    .run_warm(query, &opts, &old, &out.added)
                    .expect("crossover warm run");
                if warm.values != fresh.values {
                    report.identity_ok = false;
                }
                Some(warm.total_ns)
            } else {
                None
            };
            let lost = match warm_ns {
                Some(w) => w >= fresh.total_ns,
                // The planner falling back *is* the crossover; a
                // no-seed "unchanged" point is a win, not a loss.
                None => plan_name == "recompute",
            };
            if lost && first_loss.is_none() {
                first_loss = Some(k);
            }
            report.rows.push(CrossoverPoint {
                algo: algo.into(),
                batch_size: k,
                seeds,
                plan: plan_name.into(),
                fresh_ns: fresh.total_ns,
                warm_ns,
            });
        }
        report.crossover_at.push((algo.into(), first_loss));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_graph::GraphBuilder;

    #[test]
    fn tiny_dyn_fuzz_run_is_clean_and_exercises_every_plan_arm() {
        let cfg = DynFuzzConfig::new(10, 0xD1A);
        let r = dyn_fuzz(&cfg);
        assert!(r.is_clean(), "divergences: {:?}", r.divergences);
        assert_eq!(r.cases, 10);
        assert!(r.rounds_applied > 0, "no batch ever changed a graph");
        assert!(r.checks > 0);
        assert!(
            r.plans_unchanged > 0 && r.plans_incremental > 0 && r.plans_recompute > 0,
            "plan arms not all exercised: unchanged {} incremental {} recompute {}",
            r.plans_unchanged,
            r.plans_incremental,
            r.plans_recompute
        );
        assert_eq!(r.warm_runs, r.plans_incremental);
        let s = r.to_json().render();
        assert!(s.contains("\"clean\":true"), "{s}");
        assert!(s.contains("\"divergences\":[]"), "{s}");
    }

    #[test]
    fn dyn_fuzz_is_deterministic() {
        let cfg = DynFuzzConfig::new(4, 99);
        let (a, b) = (dyn_fuzz(&cfg), dyn_fuzz(&cfg));
        assert_eq!(a.rounds_applied, b.rounds_applied);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.plans_incremental, b.plans_incremental);
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    /// Disjoint chains make warm repair obviously cheaper than recompute
    /// at batch size 1 (single seeds, near-empty frontiers, and — for
    /// CC — cross-chain inserts that actually lower labels), and the
    /// m-sized insert batch must push the planner (or the clock) past
    /// the crossover.
    #[test]
    fn crossover_sweep_finds_the_flip_on_a_chain() {
        let (chains, len) = (40u32, 50u32);
        let mut edges = Vec::new();
        for c in 0..chains {
            for i in 0..len - 1 {
                let u = c * len + i;
                edges.push((u, u + 1, 1 + (u % 7)));
            }
        }
        let g = GraphBuilder::from_weighted_edges((chains * len) as usize, &edges).unwrap();
        let sizes = sweep_sizes(g.edge_count());
        let r = crossover(&g, 7, &sizes);
        assert!(r.identity_ok, "warm repair diverged from cold recompute");
        assert!(!r.rows.is_empty());
        // Traversals are where repair pays: small-batch warm runs must
        // beat the cold recompute. (CC recomputes in a handful of
        // near-flat iterations, so its warm path rarely wins on the
        // modeled clock — the sweep records that honestly instead of
        // asserting it away.)
        for algo in ["bfs", "sssp"] {
            let wins = r
                .rows
                .iter()
                .filter(|p| p.algo == algo && p.batch_size <= 4)
                .filter_map(CrossoverPoint::speedup)
                .any(|s| s > 1.0);
            assert!(wins, "{algo}: incremental never beat recompute at small batches");
        }
        // Every algorithm records a crossover somewhere in the sweep —
        // by the clock (CC, immediately) or by the planner's own
        // cost-estimate fallback on m-sized batches (BFS/SSSP).
        for (algo, at) in &r.crossover_at {
            assert!(at.is_some(), "{algo}: no crossover recorded in {sizes:?}");
        }
        let s = r.to_json().render();
        assert!(s.contains("\"identity_ok\":true"), "{s}");
        assert!(s.contains("\"crossover_at\""), "{s}");
    }
}
