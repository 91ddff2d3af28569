//! Web ranking with PageRank-delta (extension algorithm): rank the pages
//! of a synthetic web-link graph on the simulated GPU and compare against
//! the power-iteration oracle.
//!
//! ```text
//! cargo run --release --example web_ranking
//! ```

use agg::core::PageRankConfig;
use agg::cpu::{pagerank_delta, pagerank_power};
use agg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Dataset::Google.generate(Scale::Tiny, 404);
    println!(
        "web graph: {} pages, {} links, avg outdegree {:.1}",
        graph.node_count(),
        graph.edge_count(),
        GraphStats::compute(&graph).degree.avg
    );

    let mut session = Session::new(&graph)?;
    let cfg = PageRankConfig {
        damping: 0.85,
        epsilon: 1e-5,
    };
    let run = session.run(Query::PageRank { config: cfg }, &RunOptions::default())?;
    let ranks = run.values_as_f32();
    println!(
        "GPU PageRank: {} iterations, {:.2} ms modeled, {} launches, {} variant switches",
        run.iterations,
        run.total_ms(),
        run.launches,
        run.switches
    );

    // Top 5 pages.
    let mut order: Vec<usize> = (0..ranks.len()).collect();
    order.sort_unstable_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));
    println!("top pages by rank:");
    for &p in order.iter().take(5) {
        println!(
            "  page {p:>5}: rank {:.3} (in-degree {})",
            ranks[p],
            graph.reverse().out_degree(p as u32)
        );
    }

    // Verify against both serial implementations.
    let cpu = pagerank_delta(&graph, cfg.damping, cfg.epsilon, &CpuCostModel::default());
    let power = pagerank_power(&graph, cfg.damping, 1e-7, 500);
    let max_diff = |a: &[f32], b: &[f32]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    };
    println!(
        "max deviation: vs serial delta {:.2e}, vs power iteration {:.2e}",
        max_diff(&ranks, &cpu.ranks),
        max_diff(&ranks, &power)
    );
    println!(
        "serial delta CPU: {:.2} ms modeled -> GPU speedup {:.2}x",
        cpu.time_ns / 1e6,
        cpu.time_ns / run.total_ns
    );
    assert!(max_diff(&ranks, &power) < 5e-3);
    Ok(())
}
