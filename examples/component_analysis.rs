//! Connected-component analysis (extension algorithm): find the islands
//! of a fragmented road network with GPU min-label propagation and
//! compare strategies.
//!
//! ```text
//! cargo run --release --example component_analysis
//! ```

use agg::core::AdaptiveConfig;
use agg::graph::generators::{road_grid, RoadGridConfig};
use agg::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A heavily fragmented road grid: 35% of streets removed, no
    // highways, so the network splinters into many islands.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2013);
    let graph = road_grid(
        &mut rng,
        &RoadGridConfig {
            width: 48,
            height: 48,
            keep_prob: 0.55,
            hubs: 0,
            highways_per_hub: 0,
        },
    )?;
    println!(
        "fragmented road network: {} nodes, {} directed edges",
        graph.node_count(),
        graph.edge_count()
    );

    let mut session = Session::new(&graph)?;
    let run = session.run(Query::Cc, &RunOptions::default())?;

    // Component census from the label array.
    let mut sizes = std::collections::HashMap::new();
    for &label in &run.values {
        *sizes.entry(label).or_insert(0usize) += 1;
    }
    let mut by_size: Vec<usize> = sizes.values().copied().collect();
    by_size.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "{} components; largest {} nodes ({:.1}% of the grid); {} singletons",
        by_size.len(),
        by_size[0],
        100.0 * by_size[0] as f64 / graph.node_count() as f64,
        by_size.iter().filter(|&&s| s == 1).count()
    );
    println!(
        "GPU: {} iterations, {:.2} ms modeled, {} launches",
        run.iterations,
        run.total_ms(),
        run.launches
    );

    // Cross-check against the serial baseline, and compare variants.
    let cpu = agg::cpu::connected_components(&graph, &CpuCostModel::default());
    assert_eq!(cpu.result, run.values);
    println!(
        "verified against CPU label propagation ({:.2} ms modeled)",
        cpu.time_ns / 1e6
    );

    println!("\nper-variant modeled times:");
    for v in Variant::UNORDERED {
        let r = session.run(Query::Cc, &RunOptions::static_variant(v))?;
        println!(
            "  {}: {:.2} ms in {} iterations",
            v.name(),
            r.total_ms(),
            r.iterations
        );
    }

    // CC starts with every node in the working set, so the decision maker
    // goes straight to a bitmap — show the decision trace.
    let tuning = AdaptiveConfig {
        sampling_period: 1,
        ..AdaptiveConfig::default()
    };
    let r = session.run(
        Query::Cc,
        &RunOptions::builder().tuning(tuning).trace().build(),
    )?;
    println!("\nadaptive decisions (working set shrinks as labels stabilize):");
    for t in &r.trace {
        println!(
            "  iter {:>2}: {} (ws {:?})",
            t.iteration,
            t.variant.name(),
            t.ws_size
        );
    }
    Ok(())
}
