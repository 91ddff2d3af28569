//! Quickstart: build a graph, run adaptive BFS and SSSP, inspect the
//! report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use agg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic Amazon-co-purchase-like graph (70% of nodes have
    // outdegree 10), with random edge weights for SSSP.
    let graph = Dataset::Amazon.generate_weighted(Scale::Tiny, 42, 64);
    println!(
        "graph: {} nodes, {} edges, avg outdegree {:.1}",
        graph.node_count(),
        graph.edge_count(),
        GraphStats::compute(&graph).degree.avg
    );

    // Upload to the simulated Tesla C2070 and run with the adaptive
    // runtime (per-iteration kernel selection).
    let mut session = Session::new(&graph)?;
    let bfs = session.run(Query::Bfs { src: 0 }, &RunOptions::default())?;
    let reached = bfs.values.iter().filter(|&&l| l != INF).count();
    println!(
        "BFS:  reached {} nodes in {} iterations, {} kernel launches, {:.2} ms modeled GPU time, {} variant switches",
        reached, bfs.iterations, bfs.launches, bfs.total_ms(), bfs.switches
    );

    let sssp = session.run(Query::Sssp { src: 0 }, &RunOptions::default())?;
    let max_dist = sssp.values.iter().filter(|&&d| d != INF).max().unwrap();
    println!(
        "SSSP: max finite distance {} in {} iterations, {:.2} ms modeled GPU time",
        max_dist,
        sssp.iterations,
        sssp.total_ms()
    );

    // Compare against the serial CPU baseline the paper uses.
    let model = CpuCostModel::default();
    let cpu = cpu_bfs(&graph, 0, &model);
    assert_eq!(cpu.result, bfs.values, "GPU and CPU must agree");
    println!(
        "CPU baseline BFS: {:.2} ms modeled -> GPU speedup {:.2}x",
        cpu.time_ns / 1e6,
        cpu.time_ns / bfs.total_ns
    );

    // Many queries at once: batch them on the same session. The upload
    // was paid once and device state is pooled across queries.
    let batch = session.run_batch(
        &[
            Query::Bfs { src: 0 },
            Query::Sssp { src: 0 },
            Query::Cc,
            Query::pagerank(),
        ],
        &RunOptions::default(),
    )?;
    println!(
        "Batch: {} queries in {:.2} ms modeled ({:.0} queries/s, {} pool hits)",
        batch.queries.len(),
        batch.total_ms(),
        batch.queries_per_sec(),
        batch.pool.hits
    );
    Ok(())
}
