//! Exact golden pin of the modeled clock. Every row runs one query on a
//! fresh graph (or session, or sharded graph) and records the bit
//! patterns of its modeled times, its iteration/switch/launch counts,
//! its inspector counters, and an FNV-1a hash of its values. The table
//! in `tests/golden/modeled_time.txt` is the expected output; any
//! refactor of the engine must reproduce it exactly.
//!
//! On a mismatch the test writes the table it computed to
//! `target/modeled_golden.actual.txt` and fails, so the difference can be
//! inspected with `diff`.

use agg::prelude::{
    AdaptiveConfig, CensusMode, CsrGraph, Dataset, GpuGraph, Query, RunOptions, RunReport, Scale,
    Session, ShardedGraph, Strategy, Variant, WorkSet,
};
use agg_core::DegreeMode;
use agg_dynamic::{DynamicGraph, UpdateBatch};

const GOLDEN: &str = include_str!("golden/modeled_time.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the little-endian bytes of a value array.
fn values_hash(values: &[u32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_le_bytes()))
}

fn run_row(label: &str, r: &RunReport) -> String {
    format!(
        "{label} total={:016x} setup={:016x} teardown={:016x} host={:016x} iters={} \
         switches={} launches={} census={} degree_census={} host_iters={} bottom_up={} \
         values={:016x} trace={:016x}",
        r.total_ns.to_bits(),
        r.setup_ns.to_bits(),
        r.teardown_ns.to_bits(),
        r.host_ns.to_bits(),
        r.iterations,
        r.switches,
        r.launches,
        r.metrics.census_launches,
        r.metrics.degree_census_launches,
        r.metrics.host_iterations,
        r.metrics.bottom_up_iterations,
        values_hash(&r.values),
        // `Debug` prints every f64 in its shortest round-trip form, so
        // this hash pins each trace record bit for bit.
        fnv1a(format!("{:?}", r.trace).into_bytes()),
    )
}

/// `opts` with the per-iteration trace recorded.
fn traced(mut opts: RunOptions) -> RunOptions {
    opts.record_trace = true;
    opts
}

fn queries() -> [Query; 4] {
    [
        Query::Bfs { src: 0 },
        Query::Sssp { src: 0 },
        Query::Cc,
        Query::pagerank(),
    ]
}

fn traversal(q: Query) -> bool {
    matches!(q, Query::Bfs { .. } | Query::Sssp { .. })
}

/// Every strategy row this query supports on a single device.
fn strategies(q: Query) -> Vec<(String, RunOptions)> {
    // Thresholds low enough that tiny graphs reach the bitmap regions,
    // so switches, forced and sampled censuses, and the working-set
    // degree inspector all run.
    let eager = AdaptiveConfig {
        t2_ws_size: 8,
        t3_fraction: 0.01,
        degree_mode: DegreeMode::WorkingSet,
        ..AdaptiveConfig::default()
    };
    let mut out = vec![("adaptive".to_string(), RunOptions::default())];
    for census in [CensusMode::Sampled, CensusMode::Every] {
        let opts = RunOptions::builder().tuning(eager).census(census).build();
        out.push((format!("adaptive:eager:{census:?}"), opts));
    }
    for v in Variant::ALL {
        if traversal(q) || Variant::UNORDERED.contains(&v) {
            out.push((
                format!("static:{}", v.name()),
                RunOptions::static_variant(v),
            ));
        }
    }
    if traversal(q) {
        for width in [4, 32] {
            for workset in [WorkSet::Bitmap, WorkSet::Queue] {
                let opts = RunOptions::builder()
                    .strategy(Strategy::VirtualWarp { width, workset })
                    .build();
                out.push((format!("vwarp:{width}:{workset:?}"), opts));
            }
        }
        for gpu_threshold in [1, 64, u32::MAX] {
            let opts = RunOptions::builder()
                .strategy(Strategy::Hybrid { gpu_threshold })
                .build();
            out.push((format!("hybrid:{gpu_threshold}"), opts));
        }
        let opts = RunOptions::builder()
            .strategy(Strategy::Hybrid { gpu_threshold: 8 })
            .tuning(eager)
            .census(CensusMode::Every)
            .build();
        out.push(("hybrid:8:eager:Every".to_string(), opts));
    }
    if matches!(q, Query::Bfs { .. }) {
        let opts = RunOptions::builder()
            .strategy(Strategy::DirectionOptimized {
                bottom_up_fraction: 0.05,
            })
            .build();
        out.push(("direction_optimized".to_string(), opts));
    }
    out
}

fn single_device_rows(name: &str, g: &CsrGraph, rows: &mut Vec<String>) {
    for q in queries() {
        for (label, opts) in strategies(q) {
            let mut gg = GpuGraph::new(g).unwrap();
            if matches!(opts.strategy, Strategy::DirectionOptimized { .. }) {
                gg.enable_bottom_up(g);
            }
            let r = gg.run(q, &traced(opts)).unwrap();
            rows.push(run_row(&format!("{name}/{}/{label}", q.name()), &r));
        }
    }
}

fn warm_rows(name: &str, g: &CsrGraph, rows: &mut Vec<String>) {
    let n = g.node_count() as u32;
    // One fixed symmetric insert batch, so CC keeps component semantics.
    let mut batch = UpdateBatch::new();
    for (i, (a, b)) in [(1u32, n / 2), (3, n - 2), (n / 3, 2 * n / 3)]
        .into_iter()
        .enumerate()
    {
        let w = 1 + i as u32;
        batch.insert(a, b, w).insert(b, a, w);
    }
    let opts = traced(RunOptions::default());
    for q in [Query::Bfs { src: 0 }, Query::Sssp { src: 0 }, Query::Cc] {
        let mut session = Session::new(g).unwrap();
        let old = session.run(q, &opts).unwrap().values;
        let mut dg = DynamicGraph::new(g.clone());
        let out = dg.apply(&batch).unwrap();
        session.reload_graph(dg.snapshot().unwrap()).unwrap();
        let r = session.run_warm(q, &opts, &old, &out.added).unwrap();
        rows.push(run_row(&format!("{name}/{}/warm", q.name()), &r));
    }
}

fn sharded_rows(name: &str, g: &CsrGraph, rows: &mut Vec<String>) {
    for shards in [2, 4] {
        for q in queries() {
            let mut sg = ShardedGraph::new(g, shards).unwrap();
            let r = sg.run(q, &RunOptions::default()).unwrap();
            let launches: u64 = r.per_shard.iter().map(|s| s.launches).sum();
            let switches: u32 = r.per_shard.iter().map(|s| s.switches).sum();
            rows.push(format!(
                "{name}/{}/shards:{shards} total={:016x} setup={:016x} teardown={:016x} \
                 compute={:016x} exchange={:016x} overlap_saved={:016x} supersteps={} \
                 switches={switches} launches={launches} exchange_bytes={} values={:016x}",
                q.name(),
                r.total_ns.to_bits(),
                r.setup_ns.to_bits(),
                r.teardown_ns.to_bits(),
                r.compute_ns.to_bits(),
                r.exchange_ns.to_bits(),
                r.overlap_saved_ns.to_bits(),
                r.supersteps,
                r.exchange_bytes,
                values_hash(&r.values),
            ));
        }
    }
}

#[test]
fn modeled_time_matches_the_golden_table() {
    let graphs = [
        (
            "coroad",
            Dataset::CoRoad.generate_weighted(Scale::Tiny, 7, 64),
        ),
        (
            "amazon",
            Dataset::Amazon.generate_weighted(Scale::Tiny, 7, 64),
        ),
    ];
    let mut rows = Vec::new();
    for (name, g) in &graphs {
        single_device_rows(name, g, &mut rows);
        warm_rows(name, g, &mut rows);
        sharded_rows(name, g, &mut rows);
    }
    let actual: String = rows.iter().map(|r| format!("{r}\n")).collect();
    if actual != GOLDEN {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/target/modeled_golden.actual.txt"
        );
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/target")).unwrap();
        std::fs::write(path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, e)| a != e)
            .map(|(a, e)| format!("first differing row:\n  expected {e}\n  actual   {a}"))
            .unwrap_or_else(|| "row counts differ".to_string());
        panic!(
            "modeled clock drifted from the golden table; actual table written to {path}\n{first}"
        );
    }
}
