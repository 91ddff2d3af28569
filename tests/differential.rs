//! Workspace-level differential fuzzing suite: the acceptance gate for
//! the whole execution matrix. Every static variant, the adaptive
//! runtime, direction-optimized BFS, shuffled Session batches, and
//! multi-device sharded execution (2 and 4 shards) must
//! agree bit-for-bit with the serial CPU oracles on a corpus spanning
//! all six graph generators — including graphs with duplicate edges,
//! self-loops, isolated nodes, and disconnected components — and the
//! whole sweep must be free of harmful data races.

use agg::prelude::*;
use agg_bench::differential::{case_graph, fuzz, FuzzConfig, GENERATORS};

/// The headline sweep: 200 corpus graphs, every execution configuration,
/// compared against the oracles. Runs at the harness default —
/// fast-functional fidelity — so the race counters stay at zero here;
/// `race_detect_sweep_engages_the_detector` covers the timed+races path.
/// Deterministic in the seed, so a failure here is a failure every time.
#[test]
fn two_hundred_graph_corpus_matches_cpu_oracles() {
    let cfg = FuzzConfig::new(200, 0xA11CE);
    let report = fuzz(&cfg);
    assert!(
        report.is_clean(),
        "{} divergence(s), {} harmful race word(s): {:?}",
        report.divergences.len(),
        report.race_harmful_words,
        report.divergences
    );
    assert_eq!(report.cases, 200);
    // 24 matrix runs per graph plus the sharded sweep (BFS/SSSP/CC at 2
    // and 4 shards each) and the shuffled-batch queries.
    assert!(
        report.runs >= 200 * 24 + 200 * 6,
        "only {} runs",
        report.runs
    );
    assert_eq!(report.sharded_runs, 200 * 6, "sharded sweep incomplete");
    assert_eq!(report.batches, 25, "one shuffled batch every 8th case");
    assert_eq!(
        report.race_launches_checked, 0,
        "functional default must not pay for race logging"
    );
    // The corpus must have exercised every generator.
    let mut seen = [false; 6];
    for case in 0..200 {
        let g = case_graph(cfg.seed, case);
        seen[GENERATORS.iter().position(|&n| n == g.generator).unwrap()] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

/// A smaller sweep with `race_detect` opted in: every launch runs fully
/// timed under the race detector, and the detector must actually engage.
#[test]
fn race_detect_sweep_engages_the_detector() {
    let mut cfg = FuzzConfig::new(12, 0xA11CE);
    cfg.race_detect = true;
    let report = fuzz(&cfg);
    assert!(
        report.is_clean(),
        "{} divergence(s), {} harmful race word(s): {:?}",
        report.divergences.len(),
        report.race_harmful_words,
        report.divergences
    );
    assert!(
        report.race_launches_checked > 0,
        "race detector never engaged"
    );
    assert_eq!(report.race_harmful_words, 0);
}

/// Bottom-up (direction-optimized) BFS on a graph that is explicitly
/// disconnected and has isolated nodes: the bottom-up step scans
/// *unvisited* nodes, so nodes with no in-edges and whole unreachable
/// components must stay at the unreached sentinel, bit-identical to the
/// CPU oracle. A low threshold forces bottom-up steps from the first
/// iteration.
#[test]
fn bottom_up_bfs_matches_oracle_on_disconnected_graph() {
    // Component A: chain 0->1->2->3->4. Component B: cycle 5->6->7->5
    // (unreachable from 0). Nodes 8..=11: fully isolated (no edges at
    // all — the reverse-CSR rows the bottom-up kernel scans are empty).
    let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 5)];
    let g = GraphBuilder::from_edges(12, &edges).unwrap();
    let expected = cpu_bfs(&g, 0, &CpuCostModel::default()).result;
    // Sanity: the oracle itself sees the disconnection.
    assert_eq!(expected[4], 4);
    assert!(expected[5] > 4 && expected[8] > 4, "sentinel expected");

    let cfg = DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::TimedWithRaces);
    let mut session = Session::with_device(&g, cfg).unwrap();
    session.enable_bottom_up();
    let opts = RunOptions::builder()
        .strategy(Strategy::DirectionOptimized {
            bottom_up_fraction: 0.05,
        })
        .build();
    let r = session.run(Query::Bfs { src: 0 }, &opts).unwrap();
    assert_eq!(r.values, expected);
    assert!(
        r.metrics.bottom_up_iterations > 0,
        "threshold never triggered a bottom-up step"
    );
    assert!(
        session.device().race_summary().is_clean(),
        "harmful races in bottom-up BFS: {:?}",
        session.device().race_summary().harmful
    );
}

/// The divergence artifact must round-trip the counters CI greps for.
#[test]
fn fuzz_report_artifact_has_ci_keys() {
    let mut cfg = FuzzConfig::new(2, 7);
    cfg.batch_period = 2;
    let report = fuzz(&cfg);
    let s = report.to_json().render();
    for key in [
        "\"cases\":2",
        "\"clean\":true",
        "\"divergences\":[]",
        "\"race_harmful_words\":0",
        "\"race_launches_checked\":",
        "\"batches\":1",
        "\"sharded_runs\":12",
    ] {
        assert!(s.contains(key), "missing {key} in {s}");
    }
}
