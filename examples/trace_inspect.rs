//! Telemetry walkthrough: record a per-iteration trace of the adaptive
//! runtime, inspect where the decision maker sat in the Figure 11 space
//! each iteration, measure the inspector's sampling error against an
//! exact census, and break a run's time down by kernel.
//!
//! ```text
//! cargo run --release --example trace_inspect
//! ```

use agg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Dataset::Amazon.generate_weighted(Scale::Small, 2013, 64);
    println!(
        "Amazon analog: {} nodes, {} edges, avg outdegree {:.1}\n",
        graph.node_count(),
        graph.edge_count(),
        graph.edge_count() as f64 / graph.node_count() as f64
    );

    let mut session = Session::new(&graph)?;
    // An exact census every iteration: ws_size is then always present, so
    // the est_ws column shows exactly how stale the decision maker's
    // input would have been under sampling.
    let opts = RunOptions::builder()
        .census(CensusMode::Every)
        .trace()
        .build();
    let run = session.run(Query::Sssp { src: 0 }, &opts)?;

    // --- The per-iteration trace -------------------------------------
    println!("iter  variant  region            ws_exact  ws_est  iter_us  flags");
    for t in &run.trace {
        println!(
            "{:>4}  {:<7}  {:<16}  {:>8}  {:>6}  {:>7.1}  {}{}",
            t.iteration,
            t.variant.name(),
            t.region.name(),
            t.ws_size.map_or("-".to_string(), |w| w.to_string()),
            t.est_ws,
            t.iter_ns / 1e3,
            if t.switched { "switched " } else { "" },
            if t.inspector_ns > 0.0 { "censused" } else { "" },
        );
    }

    // --- Always-on metrics (no trace needed for these) ----------------
    let m = &run.metrics;
    println!("\nrun summary:");
    println!("  iterations        {}", m.iterations);
    println!("  variant switches  {}", m.switches);
    for (variant, count) in m.by_variant() {
        println!("    {:<8} x{count}", variant.name());
    }
    println!(
        "  censuses          {} ws-size + {} degree",
        m.census_launches, m.degree_census_launches
    );
    println!(
        "  inspector share   {:.2}% of iteration time",
        100.0 * m.inspector_ns_total / m.iter_ns_total.max(1.0)
    );
    println!(
        "  time accounting   setup {:.1} us + iterations {:.1} us + teardown {:.1} us = {:.1} us",
        run.setup_ns / 1e3,
        m.iter_ns_total / 1e3,
        run.teardown_ns / 1e3,
        run.total_ns / 1e3
    );

    // --- Per-kernel profile (the simulator's "nvprof") -----------------
    println!("\nper-kernel profile:");
    println!("  kernel                 launches  time_us  compute%  mem%  coalesce  occupancy");
    for p in run.profile.kernels() {
        println!(
            "  {:<22} {:>8}  {:>7.1}  {:>7.1}%  {:>3.0}%  {:>8.2}  {:>9.2}",
            p.kernel,
            p.launches,
            p.time_ns / 1e3,
            100.0 * p.compute_ns / p.time_ns.max(1.0),
            100.0 * p.mem_ns / p.time_ns.max(1.0),
            p.coalescing_efficiency(),
            p.occupancy_fraction,
        );
    }

    // --- Everything above as machine-readable JSON ---------------------
    let json = run.to_json();
    println!(
        "\nserialized telemetry: {} bytes of JSON (see repro --trace-json)",
        json.render().len()
    );
    Ok(())
}
