//! Tuning the adaptive runtime: sweep the T3 threshold and the inspector
//! sampling period on one dataset, and render the decision space — a
//! miniature of the paper's Section VII.B parameter study.
//!
//! ```text
//! cargo run --release --example adaptive_tuning
//! ```

use agg::core::{decision, AdaptiveConfig};
use agg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Dataset::Google.generate_weighted(Scale::Tiny, 5, 64);
    let n = graph.node_count() as u32;
    println!(
        "dataset: Google analog, {} nodes, avg outdegree {:.1}\n",
        n,
        GraphStats::compute(&graph).degree.avg
    );

    println!(
        "{}",
        decision::render_decision_space(&AdaptiveConfig::default(), n)
    );

    let mut session = Session::new(&graph)?;

    println!("T3 sweep (adaptive SSSP):");
    for pct in [1u32, 3, 6, 9, 13] {
        let tuning = AdaptiveConfig {
            t3_fraction: pct as f64 / 100.0,
            ..AdaptiveConfig::default()
        };
        let opts = RunOptions::builder().tuning(tuning).build();
        let r = session.run(Query::Sssp { src: 0 }, &opts)?;
        println!(
            "  T3 = {pct:>2}% of n -> {:.3} ms, {} switches, {} iterations",
            r.total_ms(),
            r.switches,
            r.iterations
        );
    }

    println!("\nsampling-period sweep (inspector overhead vs decision quality):");
    for period in [1u32, 2, 4, 8, 16, 32] {
        let tuning = AdaptiveConfig {
            sampling_period: period,
            ..AdaptiveConfig::default()
        };
        let opts = RunOptions::builder()
            .tuning(tuning)
            .census(CensusMode::Sampled)
            .build();
        let r = session.run(Query::Sssp { src: 0 }, &opts)?;
        println!("  period {period:>2} -> {:.3} ms", r.total_ms());
    }

    println!("\nscan-based queue generation (Merrill-style ablation):");
    for scan in [false, true] {
        let tuning = AdaptiveConfig {
            scan_queue_gen: scan,
            ..AdaptiveConfig::default()
        };
        let opts = RunOptions::builder().tuning(tuning).build();
        let r = session.run(Query::Sssp { src: 0 }, &opts)?;
        println!("  scan_queue_gen = {scan:<5} -> {:.3} ms", r.total_ms());
    }
    Ok(())
}
