//! Property-based tests over the whole stack: random graphs through every
//! kernel variant, format round trips, working-set invariants, and the
//! decision function's totality.

use agg::prelude::{
    AlgoOrder, CsrGraph, GraphBuilder, Query, RunOptions, Session, Variant, WorkSet, INF,
};
use agg_core::AdaptiveConfig;
use agg_graph::io::{read_dimacs, read_edge_list, write_dimacs, write_edge_list};
use agg_graph::traversal;
use proptest::prelude::*;
use std::io::Cursor;

/// Strategy: a random weighted digraph as (node count, edge triples).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..100), 0..max_m)
            .prop_map(move |edges| GraphBuilder::from_weighted_edges(n, &edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn bfs_every_variant_matches_the_oracle(g in arb_graph(40, 150), seed in 0u32..1000) {
        let src = seed % g.node_count() as u32;
        let expected = traversal::bfs_levels(&g, src);
        prop_assert!(traversal::is_bfs_levels(&g, src, &expected));
        let mut session = Session::new(&g).unwrap();
        for v in Variant::ALL {
            let r = session.run(Query::Bfs { src }, &RunOptions::static_variant(v)).unwrap();
            prop_assert_eq!(&r.values, &expected, "variant {}", v.name());
        }
    }

    #[test]
    fn sssp_adaptive_and_two_statics_match_dijkstra(g in arb_graph(35, 120), seed in 0u32..1000) {
        let src = seed % g.node_count() as u32;
        let expected = traversal::dijkstra(&g, src);
        prop_assert!(traversal::is_sssp_fixpoint(&g, src, &expected));
        let mut session = Session::new(&g).unwrap();
        let adaptive = session.run(Query::Sssp { src }, &RunOptions::default()).unwrap();
        prop_assert_eq!(&adaptive.values, &expected);
        for name in ["O_B_QU", "U_T_BM"] {
            let v = Variant::parse(name).unwrap();
            let r = session.run(Query::Sssp { src }, &RunOptions::static_variant(v)).unwrap();
            prop_assert_eq!(&r.values, &expected, "variant {}", name);
        }
    }

    #[test]
    fn dimacs_round_trip_preserves_graphs(g in arb_graph(30, 100)) {
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &g).unwrap();
        let g2 = read_dimacs(Cursor::new(buf)).unwrap();
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = g2.edges().collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(g.node_count(), g2.node_count());
    }

    #[test]
    fn edge_list_round_trip_preserves_graphs(g in arb_graph(30, 100)) {
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = g2.edges().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reverse_is_an_involution(g in arb_graph(30, 100)) {
        let rr = g.reverse().reverse();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = rr.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn decision_is_total_and_unordered(
        ws in 0u32..5_000_000,
        n in 1u32..5_000_000,
        deg in 0.0f64..500.0,
        t3 in 0.01f64..0.2,
    ) {
        let cfg = AdaptiveConfig { t3_fraction: t3, ..AdaptiveConfig::default() };
        let v = agg_core::decide(&cfg, ws, n, deg);
        prop_assert_eq!(v.order, AlgoOrder::Unordered);
        prop_assert!(Variant::UNORDERED.contains(&v));
        // Small working sets must always use the queue (bitmaps waste
        // whole launches when sparse).
        if ws < cfg.t2_ws_size.min(cfg.t3_ws_size(n)) {
            prop_assert_eq!(v.workset, WorkSet::Queue);
        }
    }

    #[test]
    fn bfs_levels_satisfy_edge_triangle_inequality(g in arb_graph(40, 150)) {
        let levels = traversal::bfs_levels(&g, 0);
        for (u, v, _) in g.edges() {
            let (lu, lv) = (levels[u as usize], levels[v as usize]);
            if lu != INF {
                prop_assert!(lv != INF && lv <= lu + 1, "edge ({u},{v}): {lu} -> {lv}");
            }
        }
    }

    #[test]
    fn run_report_times_are_positive_and_finite(g in arb_graph(25, 80)) {
        let mut session = Session::new(&g).unwrap();
        let r = session.run(Query::Bfs { src: 0 }, &RunOptions::default()).unwrap();
        prop_assert!(r.total_ns.is_finite() && r.total_ns > 0.0);
        prop_assert!(r.launches > 0);
    }

    /// The bytecode engine's timed fast lane (folded cost blocks,
    /// batched per-warp charging, pattern-cached coalescing) must be
    /// observationally identical to the legacy interpreter — which folds
    /// nothing, charges statement by statement, and counts transactions
    /// by sorting tagged addresses — on random graphs: same values, same
    /// modeled device clock (exact f64 equality — the engines must
    /// charge the same cycles in the same order), same per-kernel launch
    /// profiles (kernel_ns, issue/stall cycles, every CostStats counter
    /// including coalescing transaction counts), same race summary, for
    /// all four algorithms under the adaptive runtime at both timed
    /// fidelities.
    #[test]
    fn bytecode_engine_is_bit_identical_to_interpreter(g in arb_graph(35, 120), seed in 0u32..1000) {
        use agg::prelude::{DeviceConfig, ExecEngine, SimFidelity};
        let src = seed % g.node_count() as u32;
        for fidelity in [SimFidelity::Timed, SimFidelity::TimedWithRaces] {
            let mut outcomes = Vec::new();
            for engine in [ExecEngine::Interpreter, ExecEngine::Bytecode] {
                let cfg = DeviceConfig::tesla_c2070()
                    .with_engine(engine)
                    .with_fidelity(fidelity);
                let mut session = Session::with_device(&g, cfg).unwrap();
                let mut values = Vec::new();
                for q in [Query::Bfs { src }, Query::Sssp { src }, Query::Cc, Query::pagerank()] {
                    values.push(session.run(q, &RunOptions::default()).unwrap().values);
                }
                let dev = session.device();
                outcomes.push((
                    values,
                    dev.elapsed_ns(),
                    dev.kernel_ns(),
                    dev.cumulative_stats(),
                    dev.profile().clone(),
                    dev.race_summary().clone(),
                ));
            }
            let (bc, interp) = (outcomes.pop().unwrap(), outcomes.pop().unwrap());
            prop_assert_eq!(interp.0, bc.0, "values diverge ({:?})", fidelity);
            prop_assert_eq!(interp.1, bc.1, "modeled time diverges ({:?})", fidelity);
            prop_assert_eq!(interp.2, bc.2, "kernel_ns diverges ({:?})", fidelity);
            prop_assert_eq!(interp.3, bc.3, "cost stats diverge ({:?})", fidelity);
            prop_assert_eq!(interp.4, bc.4, "launch profiles diverge ({:?})", fidelity);
            prop_assert_eq!(interp.5, bc.5, "race summaries diverge ({:?})", fidelity);
        }
    }

    #[test]
    fn telemetry_is_self_consistent(g in arb_graph(35, 120), seed in 0u32..1000) {
        let src = seed % g.node_count() as u32;
        let mut session = Session::new(&g).unwrap();
        let opts = RunOptions::builder().trace().build();
        let r = session.run(Query::Bfs { src }, &opts).unwrap();
        // The trace has exactly one record per iteration, in order
        // (iteration numbers are 1-based).
        prop_assert_eq!(r.trace.len(), r.iterations as usize);
        for (i, t) in r.trace.iter().enumerate() {
            prop_assert_eq!(t.iteration as usize, i + 1);
        }
        // Switch counters agree with the variant transitions in the trace.
        let trace_switches = r.trace.iter().filter(|t| t.switched).count() as u32;
        prop_assert_eq!(r.switches, trace_switches);
        prop_assert_eq!(r.metrics.switches, r.switches);
        let transitions = r
            .trace
            .windows(2)
            .filter(|w| w[0].variant != w[1].variant)
            .count() as u32;
        prop_assert_eq!(trace_switches, transitions);
        // The always-on metrics agree with the opt-in trace.
        prop_assert_eq!(r.metrics.iterations, r.iterations);
        let by_variant_total: u32 = r.metrics.by_variant().iter().map(|(_, c)| c).sum();
        prop_assert_eq!(by_variant_total, r.iterations);
        let trace_ns: f64 = r.trace.iter().map(|t| t.iter_ns).sum();
        let tol = 1e-6 * r.total_ns.max(1.0);
        prop_assert!(
            (trace_ns - r.metrics.iter_ns_total).abs() <= tol,
            "trace {} vs metrics {}", trace_ns, r.metrics.iter_ns_total
        );
        // Per-phase times sum to the run total.
        let accounted = r.setup_ns + r.metrics.iter_ns_total + r.teardown_ns;
        prop_assert!(
            (accounted - r.total_ns).abs() <= tol,
            "accounted {} vs total {}", accounted, r.total_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn queue_generation_emits_exactly_the_set_bits(bits in proptest::collection::vec(any::<bool>(), 1..400)) {
        use agg_gpu_sim::prelude::*;
        use agg_kernels::GpuKernels;
        let kernels = GpuKernels::build();
        let n = bits.len() as u32;
        let update: Vec<u32> = bits.iter().map(|&b| b as u32).collect();
        let expected: Vec<u32> =
            (0..n).filter(|&i| bits[i as usize]).collect();
        for kernel in [&kernels.gen_queue, &kernels.gen_queue_scan] {
            let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
            let u = dev.alloc_from_slice("u", &update);
            let q = dev.alloc("q", n as usize);
            let len = dev.alloc("len", 1);
            dev.launch(
                kernel,
                Grid::linear(n as u64, 192),
                &LaunchArgs::new().bufs([u, q, len]).scalars([n]),
            )
            .unwrap();
            let l = dev.debug_read_word(len, 0).unwrap() as usize;
            prop_assert_eq!(l, expected.len(), "{}", &kernel.name);
            let mut got = dev.debug_read(q).unwrap()[..l].to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{}", &kernel.name);
            // update vector fully consumed
            prop_assert!(dev.debug_read(u).unwrap().iter().all(|&x| x == 0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn cc_matches_the_naive_oracle_on_random_graphs(g in arb_graph(35, 120)) {
        let expected = traversal::min_labels(&g);
        let mut session = Session::new(&g).unwrap();
        let adaptive = session.run(Query::Cc, &RunOptions::default()).unwrap();
        prop_assert_eq!(&adaptive.values, &expected);
        for v in Variant::UNORDERED {
            let r = session.run(Query::Cc, &RunOptions::static_variant(v)).unwrap();
            prop_assert_eq!(&r.values, &expected, "variant {}", v.name());
        }
    }

    #[test]
    fn virtual_warp_matches_bfs_oracle(g in arb_graph(35, 120), width_pow in 1u32..6) {
        let width = 1 << width_pow; // 2..32
        let expected = traversal::bfs_levels(&g, 0);
        let mut session = Session::new(&g).unwrap();
        for ws in [WorkSet::Bitmap, WorkSet::Queue] {
            let opts = RunOptions::builder()
                .strategy(agg::prelude::Strategy::VirtualWarp { width, workset: ws })
                .build();
            let r = session.run(Query::Bfs { src: 0 }, &opts).unwrap();
            prop_assert_eq!(&r.values, &expected, "vw{} {:?}", width, ws);
        }
    }

    #[test]
    fn hybrid_matches_bfs_oracle_at_any_threshold(
        g in arb_graph(35, 120),
        threshold in 0u32..200,
    ) {
        let expected = traversal::bfs_levels(&g, 0);
        let mut session = Session::new(&g).unwrap();
        let opts = RunOptions::builder()
            .strategy(agg::prelude::Strategy::Hybrid { gpu_threshold: threshold })
            .build();
        let r = session.run(Query::Bfs { src: 0 }, &opts).unwrap();
        prop_assert_eq!(&r.values, &expected);
    }

    #[test]
    fn pagerank_mass_conservation_and_oracle_proximity(g in arb_graph(30, 100)) {
        let mut session = Session::new(&g).unwrap();
        let r = session.run(Query::pagerank(), &RunOptions::default()).unwrap();
        let ranks = r.values_as_f32();
        let n = g.node_count() as f32;
        let total: f32 = ranks.iter().sum();
        // teleport mass alone is (1-d)*n; dangling leakage keeps total <= n
        prop_assert!(total >= 0.15 * n * 0.99 && total <= n * 1.01, "total {}", total);
        prop_assert!(ranks.iter().all(|&x| x.is_finite() && x >= 0.0));
        let power = agg::cpu::pagerank_power(&g, 0.85, 1e-7, 500);
        let diff = ranks.iter().zip(&power).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        prop_assert!(diff < 2e-2, "max diff {}", diff);
    }

    #[test]
    fn shuffled_batches_match_one_by_one_runs(g in arb_graph(35, 120), seed in any::<u64>()) {
        use agg::prelude::DeviceConfig;
        let n = g.node_count() as u32;
        // A mixed batch with duplicate algorithms, shuffled so the
        // scheduler's same-algorithm grouping actually reorders it.
        let mut queries = vec![
            Query::Bfs { src: 0 },
            Query::Sssp { src: seed as u32 % n },
            Query::Cc,
            Query::Bfs { src: (seed >> 8) as u32 % n },
            Query::pagerank(),
            Query::Sssp { src: 0 },
            Query::Bfs { src: (seed >> 16) as u32 % n },
        ];
        // Fisher-Yates with a splitmix-style generator keyed by the seed.
        let mut state = seed;
        for i in (1..queries.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            queries.swap(i, (state >> 33) as usize % (i + 1));
        }
        // Oracle: every query on its own fresh upload.
        let mut expected = Vec::new();
        for q in &queries {
            let mut session = Session::new(&g).unwrap();
            expected.push(session.run(*q, &RunOptions::default()).unwrap());
        }
        // Batched, on the main device and fanned across three workers.
        let mut seq = Session::new(&g).unwrap();
        let mut par = Session::parallel(&g, DeviceConfig::tesla_c2070(), 3).unwrap();
        for batch in [
            seq.run_batch(&queries, &RunOptions::default()).unwrap(),
            par.run_batch(&queries, &RunOptions::default()).unwrap(),
        ] {
            for (i, (qr, e)) in batch.queries.iter().zip(&expected).enumerate() {
                prop_assert_eq!(qr.index, i);
                prop_assert_eq!(&qr.query, &queries[i]);
                prop_assert_eq!(&qr.report.values, &e.values, "query #{} {:?}", i, queries[i]);
                prop_assert_eq!(qr.report.iterations, e.iterations);
                prop_assert_eq!(qr.report.launches, e.launches);
            }
            // Per-query device-time slices telescope to the batch total.
            let sum: f64 = batch.queries.iter().map(|q| q.device_ns).sum();
            prop_assert!(
                (sum - batch.device_ns).abs() <= 1e-6 * batch.device_ns.max(1.0),
                "slice sum {} vs batch {}", sum, batch.device_ns
            );
        }
    }

    #[test]
    fn relabeling_commutes_with_every_algorithm(g in arb_graph(30, 100)) {
        let relab = agg::graph::relabel::bfs_order(&g, 0);
        let h = agg::graph::relabel::apply(&g, &relab).unwrap();
        // BFS commutes
        let a = traversal::bfs_levels(&g, 0);
        let b = traversal::bfs_levels(&h, relab.perm[0]);
        prop_assert_eq!(relab.unpermute_values(&b), a);
        // degree multiset preserved
        let mut da: Vec<usize> = (0..g.node_count() as u32).map(|v| g.out_degree(v)).collect();
        let mut db: Vec<usize> = (0..h.node_count() as u32).map(|v| h.out_degree(v)).collect();
        da.sort_unstable();
        db.sort_unstable();
        prop_assert_eq!(da, db);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn partition_covers_every_edge_exactly_once(
        g in arb_graph(40, 150),
        k in 1usize..7,
        degree_balanced in any::<bool>(),
    ) {
        use agg::prelude::{partition, PartitionStrategy};
        let strategy = if degree_balanced {
            PartitionStrategy::DegreeBalanced
        } else {
            PartitionStrategy::Contiguous1D
        };
        let part = partition(&g, k, strategy).unwrap();
        prop_assert_eq!(part.shard_count(), k);
        // Every global edge appears in exactly one shard's local CSR
        // (owned by its source), with the weight carried along.
        let mut seen: Vec<(u32, u32, u32)> = Vec::new();
        for plan in &part.shards {
            for (u_l, v_l, w) in plan.local.edges() {
                prop_assert!(u_l < plan.owned_count() as u32, "ghost rows must be empty");
                seen.push((plan.to_global(u_l), plan.to_global(v_l), w));
            }
        }
        let mut expected: Vec<(u32, u32, u32)> = g.edges().collect();
        seen.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
        // Ownership is a partition of the node range.
        let total_owned: usize = part.shards.iter().map(|p| p.owned_count()).sum();
        prop_assert_eq!(total_owned, g.node_count());
        // Cut accounting is symmetric across shards.
        let cut_out: usize = part.shards.iter().map(|p| p.cut_out_edges).sum();
        let cut_in: usize = part.shards.iter().map(|p| p.cut_in_edges).sum();
        prop_assert_eq!(cut_out, part.cut_edges);
        prop_assert_eq!(cut_in, part.cut_edges);
    }

    #[test]
    fn ghost_ids_round_trip_and_stay_sorted(g in arb_graph(40, 150), k in 2usize..6) {
        use agg::prelude::{partition, PartitionStrategy};
        let part = partition(&g, k, PartitionStrategy::Contiguous1D).unwrap();
        for plan in &part.shards {
            prop_assert!(plan.ghosts.windows(2).all(|w| w[0] < w[1]), "ghosts must be sorted");
            for l in 0..plan.ext_count() as u32 {
                let gid = plan.to_global(l);
                prop_assert_eq!(plan.to_local(gid), Some(l), "lid {} round trip", l);
                prop_assert_eq!(plan.owns(gid), l < plan.owned_count() as u32);
                // Ghosts are never owned here but always owned elsewhere.
                if l >= plan.owned_count() as u32 {
                    let owner = part.owner_of(gid);
                    prop_assert!(owner != plan.shard);
                    prop_assert!(part.shards[owner].owns(gid));
                }
            }
        }
    }

    #[test]
    fn degree_balanced_shards_respect_the_edge_bound(g in arb_graph(50, 250), k in 1usize..7) {
        use agg::prelude::{partition, PartitionStrategy};
        let part = partition(&g, k, PartitionStrategy::DegreeBalanced).unwrap();
        let max_outdeg = (0..g.node_count() as u32)
            .map(|v| g.out_degree(v))
            .max()
            .unwrap_or(0);
        let bound = g.edge_count().div_ceil(k) + max_outdeg;
        prop_assert!(
            part.max_shard_edges() <= bound,
            "max shard edges {} exceeds ceil(m/k) + max outdegree = {}",
            part.max_shard_edges(),
            bound
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    #[test]
    fn sharded_execution_is_bit_identical_to_single_device(
        g in arb_graph(35, 120),
        k in 1usize..6,
        seed in 0u32..1000,
        degree_balanced in any::<bool>(),
    ) {
        use agg::prelude::{
            DeviceConfig, Interconnect, PartitionStrategy, ShardedGraph,
        };
        let strategy = if degree_balanced {
            PartitionStrategy::DegreeBalanced
        } else {
            PartitionStrategy::Contiguous1D
        };
        let src = seed % g.node_count() as u32;
        let opts = RunOptions::default();
        let mut sharded = ShardedGraph::with_config(
            &g,
            k,
            strategy,
            DeviceConfig::tesla_c2070(),
            Interconnect::pcie(),
        )
        .unwrap();
        let mut session = Session::new(&g).unwrap();
        for query in [
            Query::Bfs { src },
            Query::Sssp { src },
            Query::Cc,
            Query::pagerank(),
        ] {
            let expected = session.run(query, &opts).unwrap();
            let r = sharded.run(query, &opts).unwrap();
            prop_assert_eq!(
                &r.values, &expected.values,
                "{:?} diverged at {} shards ({:?})", query, k, strategy
            );
            // The report's time-accounting identity holds exactly.
            prop_assert_eq!(r.accounting_gap(), 0.0);
            let sent: u64 = r.per_shard.iter().map(|s| s.bytes_sent).sum();
            prop_assert_eq!(sent, r.exchange_bytes);
        }
    }
}
