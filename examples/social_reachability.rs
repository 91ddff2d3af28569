//! Social-network reachability: "degrees of separation" on an R-MAT
//! social graph (the paper's SNS/LiveJournal analog) — a GPU-friendly
//! workload whose working set explodes after a few hops.
//!
//! ```text
//! cargo run --release --example social_reachability
//! ```

use agg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Dataset::Sns.generate(Scale::Tiny, 99);
    let stats = GraphStats::compute(&graph);
    println!(
        "social graph: {} users, {} follows, avg outdegree {:.1}, max {} (heavy tail)",
        stats.nodes, stats.edges, stats.degree.avg, stats.degree.max
    );

    // Pick the highest-outdegree user as the influencer.
    let influencer = (0..graph.node_count() as u32)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap_or(0);
    println!(
        "influencer: user {influencer} with {} direct follows",
        graph.out_degree(influencer)
    );

    let mut session = Session::new(&graph)?;
    let opts = RunOptions::builder()
        .census(CensusMode::Every)
        .trace()
        .build();
    let run = session.run(Query::Bfs { src: influencer }, &opts)?;

    // Degrees-of-separation histogram.
    let mut by_level = std::collections::BTreeMap::new();
    for &l in run.values.iter().filter(|&&l| l != INF) {
        *by_level.entry(l).or_insert(0usize) += 1;
    }
    println!("degrees of separation from the influencer:");
    let total: usize = by_level.values().sum();
    for (level, count) in &by_level {
        println!(
            "  {level} hops: {:<50} {count} users",
            "#".repeat(50 * count / total)
        );
    }
    let unreached = run.values.iter().filter(|&&l| l == INF).count();
    println!("unreachable users: {unreached}");

    // The frontier explosion the adaptive runtime exploits:
    println!("working-set size per iteration (the paper's Figure 2 dynamic):");
    for t in &run.trace {
        if let Some(ws) = t.ws_size {
            println!("  iter {:>2} [{}]: {ws}", t.iteration, t.variant.name());
        }
    }
    println!(
        "total modeled GPU time: {:.2} ms across {} launches",
        run.total_ms(),
        run.launches
    );

    // Social frontiers explode after one hop — exactly the shape the
    // direction-optimizing (bottom-up) extension targets.
    session.enable_bottom_up();
    let dir_opt = session.run(
        Query::Bfs { src: influencer },
        &RunOptions::builder()
            .strategy(Strategy::DirectionOptimized {
                bottom_up_fraction: 0.05,
            })
            .build(),
    )?;
    assert_eq!(dir_opt.values, run.values);
    println!(
        "direction-optimized BFS: {:.2} ms ({:.2}x, atomics {} -> {})",
        dir_opt.total_ms(),
        run.total_ns / dir_opt.total_ns,
        run.gpu_stats.totals.atomics,
        dir_opt.gpu_stats.totals.atomics
    );
    Ok(())
}
