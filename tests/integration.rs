//! Cross-crate integration tests: graph generation → device upload →
//! adaptive/static traversals → verification against the CPU baselines,
//! plus file-format round trips through the full pipeline.

use agg::prelude::*;
use agg_graph::io::{read_dimacs, read_edge_list, write_dimacs, write_edge_list};
use agg_graph::traversal;
use std::io::Cursor;

#[test]
fn end_to_end_adaptive_on_every_dataset() {
    for d in Dataset::ALL {
        let g = d.generate_weighted(Scale::Tiny, 404, 64);
        let mut session = Session::new(&g).unwrap();

        let bfs = session
            .run(Query::Bfs { src: 0 }, &RunOptions::default())
            .unwrap();
        let cpu = cpu_bfs(&g, 0, &CpuCostModel::default());
        assert_eq!(bfs.values, cpu.result, "{} BFS", d.name());

        let sssp = session
            .run(Query::Sssp { src: 0 }, &RunOptions::default())
            .unwrap();
        let cpu = cpu_dijkstra(&g, 0, &CpuCostModel::default());
        assert_eq!(sssp.values, cpu.result, "{} SSSP", d.name());

        assert!(bfs.total_ns > 0.0 && sssp.total_ns > 0.0);
        assert!(
            sssp.iterations >= bfs.iterations,
            "{}: SSSP converges no faster than BFS",
            d.name()
        );
    }
}

#[test]
fn every_static_variant_agrees_with_adaptive() {
    let g = Dataset::Google.generate_weighted(Scale::Tiny, 405, 64);
    let mut session = Session::new(&g).unwrap();
    let reference = session
        .run(Query::Sssp { src: 0 }, &RunOptions::default())
        .unwrap()
        .values;
    for v in Variant::ALL {
        let r = session
            .run(Query::Sssp { src: 0 }, &RunOptions::static_variant(v))
            .unwrap();
        assert_eq!(r.values, reference, "{}", v.name());
        assert_eq!(r.switches, 0);
    }
}

#[test]
fn dimacs_round_trip_through_the_gpu() {
    let g = Dataset::CoRoad.generate_weighted(Scale::Tiny, 406, 30);
    let mut buf = Vec::new();
    write_dimacs(&mut buf, &g).unwrap();
    let g2 = read_dimacs(Cursor::new(buf)).unwrap();
    assert_eq!(g.node_count(), g2.node_count());
    assert_eq!(g.edge_count(), g2.edge_count());

    let mut session = Session::new(&g2).unwrap();
    let r = session
        .run(Query::Sssp { src: 0 }, &RunOptions::default())
        .unwrap();
    assert_eq!(r.values, traversal::dijkstra(&g, 0));
}

#[test]
fn edge_list_round_trip_through_the_gpu() {
    let g = Dataset::P2p.generate(Scale::Tiny, 407);
    let mut buf = Vec::new();
    write_edge_list(&mut buf, &g).unwrap();
    let g2 = read_edge_list(Cursor::new(buf)).unwrap();

    let mut session = Session::new(&g2).unwrap();
    let r = session
        .run(Query::Bfs { src: 0 }, &RunOptions::default())
        .unwrap();
    assert_eq!(r.values, traversal::bfs_levels(&g, 0));
}

#[test]
fn adaptive_is_never_worse_than_the_worst_static() {
    // A weak but robust performance property: the decision maker must not
    // pick a catastrophic configuration.
    let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 408, 64);
    let mut session = Session::new(&g).unwrap();
    let adaptive = session
        .run(Query::Sssp { src: 0 }, &RunOptions::default())
        .unwrap()
        .total_ns;
    let mut worst: f64 = 0.0;
    for v in Variant::UNORDERED {
        let r = session
            .run(Query::Sssp { src: 0 }, &RunOptions::static_variant(v))
            .unwrap();
        worst = worst.max(r.total_ns);
    }
    assert!(
        adaptive < worst,
        "adaptive ({adaptive} ns) should beat the worst static ({worst} ns)"
    );
}

#[test]
fn run_reports_account_consistently() {
    let g = Dataset::Sns.generate(Scale::Tiny, 409);
    let mut session = Session::new(&g).unwrap();
    let opts = RunOptions::builder().trace().build();
    let r = session.run(Query::Bfs { src: 0 }, &opts).unwrap();
    // prep + gen + compute = at least 3 launches per executed iteration,
    // plus the final empty-check iteration's prep + gen.
    assert!(r.launches >= 3 * r.iterations as u64 + 2);
    assert_eq!(r.trace.len(), r.iterations as usize);
    // Per-iteration times sum to less than the total (which also includes
    // init, the final check, and the value download).
    let iter_sum: f64 = r.trace.iter().map(|t| t.iter_ns).sum();
    assert!(iter_sum < r.total_ns);
    // Switch count is bounded by iteration transitions.
    assert!(r.switches < r.iterations.max(1));
}

#[test]
fn device_clock_accumulates_across_runs() {
    let g = Dataset::P2p.generate(Scale::Tiny, 410);
    let mut session = Session::new(&g).unwrap();
    let after_upload = session.device().elapsed_ns();
    session
        .run(Query::Bfs { src: 0 }, &RunOptions::default())
        .unwrap();
    let after_one = session.device().elapsed_ns();
    session
        .run(Query::Bfs { src: 1 }, &RunOptions::default())
        .unwrap();
    let after_two = session.device().elapsed_ns();
    assert!(after_upload < after_one && after_one < after_two);
}

#[test]
fn sources_in_every_corner_of_the_graph() {
    let g = Dataset::CoRoad.generate(Scale::Tiny, 411);
    let n = g.node_count() as u32;
    let mut session = Session::new(&g).unwrap();
    for src in [0, n / 2, n - 1] {
        let r = session
            .run(Query::Bfs { src }, &RunOptions::default())
            .unwrap();
        assert_eq!(r.values, traversal::bfs_levels(&g, src), "src {src}");
    }
}

#[test]
fn scan_queue_generation_gives_identical_results() {
    let g = Dataset::Google.generate_weighted(Scale::Tiny, 412, 64);
    let mut session = Session::new(&g).unwrap();
    let base = session
        .run(Query::Sssp { src: 0 }, &RunOptions::default())
        .unwrap();
    let tuning = agg::core::AdaptiveConfig {
        scan_queue_gen: true,
        ..Default::default()
    };
    let scan = session
        .run(
            Query::Sssp { src: 0 },
            &RunOptions::builder().tuning(tuning).build(),
        )
        .unwrap();
    assert_eq!(base.values, scan.values);
}

#[test]
fn pagerank_through_the_facade_matches_the_oracle() {
    let g = Dataset::Google.generate(Scale::Tiny, 413);
    let mut session = Session::new(&g).unwrap();
    let run = session
        .run(
            Query::PageRank {
                config: PageRankConfig {
                    damping: 0.85,
                    epsilon: 1e-5,
                },
            },
            &RunOptions::default(),
        )
        .unwrap();
    let power = agg::cpu::pagerank_power(&g, 0.85, 1e-7, 500);
    let max_diff = run
        .values_as_f32()
        .iter()
        .zip(&power)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_diff < 5e-3, "max diff {max_diff}");
}

#[test]
fn relabeled_graph_produces_permuted_results_faster_memory_traffic() {
    let g = Dataset::Amazon.generate(Scale::Tiny, 414);
    let relabeling = agg::graph::relabel::bfs_order(&g, 0);
    let h = agg::graph::relabel::apply(&g, &relabeling).unwrap();

    let mut orig = Session::new(&g).unwrap();
    let mut relab = Session::new(&h).unwrap();
    let opts = RunOptions::static_variant(Variant::parse("U_T_BM").unwrap());
    let a = orig.run(Query::Bfs { src: 0 }, &opts).unwrap();
    let b = relab
        .run(
            Query::Bfs {
                src: relabeling.perm[0],
            },
            &opts,
        )
        .unwrap();
    assert_eq!(relabeling.unpermute_values(&b.values), a.values);
    // BFS-order renumbering must not increase coalesced traffic.
    assert!(
        b.gpu_stats.totals.mem_transactions <= a.gpu_stats.totals.mem_transactions,
        "relabeled {} > original {}",
        b.gpu_stats.totals.mem_transactions,
        a.gpu_stats.totals.mem_transactions
    );
}

#[test]
fn cc_through_the_facade() {
    let g = Dataset::CoRoad.generate(Scale::Tiny, 415);
    let mut session = Session::new(&g).unwrap();
    let run = session.run(Query::Cc, &RunOptions::default()).unwrap();
    assert_eq!(run.values, traversal::min_labels(&g));
}
