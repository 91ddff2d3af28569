//! Road-network navigation: single-source shortest paths on a road-grid
//! graph — the paper's GPU-hostile workload (huge diameter, tiny degrees).
//!
//! Shows why the adaptive runtime matters: the working set stays small for
//! hundreds of iterations, so the decision maker keeps selecting
//! block-mapping + queue instead of wasting full-graph bitmap launches.
//!
//! ```text
//! cargo run --release --example road_navigation
//! ```

use agg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Dataset::CoRoad.generate_weighted(Scale::Tiny, 7, 30);
    let stats = GraphStats::compute(&graph);
    println!(
        "road network: {} intersections, {} road segments, avg degree {:.1}, max degree {}",
        stats.nodes, stats.edges, stats.degree.avg, stats.degree.max
    );

    let mut session = Session::new(&graph)?;
    let depot: u32 = 0;

    // Adaptive SSSP with a full trace so we can watch the decisions.
    let opts = RunOptions::builder().trace().build();
    let run = session.run(Query::Sssp { src: depot }, &opts)?;

    let reachable = run.values.iter().filter(|&&d| d != INF).count();
    println!(
        "SSSP from depot {depot}: {} reachable intersections, {} iterations, {:.2} ms modeled",
        reachable,
        run.iterations,
        run.total_ms()
    );

    // Which variants did the decision maker pick, and how often?
    let mut counts = std::collections::BTreeMap::new();
    for t in &run.trace {
        *counts.entry(t.variant.name()).or_insert(0u32) += 1;
    }
    println!(
        "variant usage across iterations: {counts:?} ({} switches)",
        run.switches
    );

    // Travel-time distribution (bucketed).
    let finite: Vec<u32> = run.values.iter().copied().filter(|&d| d != INF).collect();
    let max = *finite.iter().max().unwrap_or(&1);
    let buckets = 8usize;
    let mut hist = vec![0usize; buckets];
    for d in &finite {
        hist[((*d as usize * (buckets - 1)) / max as usize).min(buckets - 1)] += 1;
    }
    println!("travel-cost distribution (0..{max}):");
    for (i, count) in hist.iter().enumerate() {
        println!(
            "  bucket {i}: {:<40} {count}",
            "#".repeat(40 * count / finite.len().max(1))
        );
    }

    // Cross-check against serial Dijkstra.
    let cpu = cpu_dijkstra(&graph, depot, &CpuCostModel::default());
    assert_eq!(cpu.result, run.values);
    println!(
        "verified against serial Dijkstra ({:.2} ms modeled CPU)",
        cpu.time_ns / 1e6
    );
    Ok(())
}
