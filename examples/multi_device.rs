//! Multi-device sharded execution: split one graph across several
//! simulated GPUs, exchange frontiers over a modeled interconnect, and
//! check the answers stay bit-identical to a single device.
//!
//! ```text
//! cargo run --release --example multi_device
//! ```

use agg::graph::generators::{powerlaw, PowerLawConfig};
use agg::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hub-heavy power-law graph — the shape where per-shard adaptive
    // decisions matter, because a degree-balanced split still leaves the
    // shards with very different local densities.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2013);
    let graph = powerlaw(
        &mut rng,
        &PowerLawConfig {
            nodes: 4000,
            alpha: 2.2,
            min_degree: 1,
            max_degree: 256,
            target_avg_degree: 6.0,
            dest_zipf: 1.1,
        },
    )?
    .with_random_weights(&mut rng, 64);
    println!(
        "power-law graph: {} nodes, {} directed edges",
        graph.node_count(),
        graph.edge_count()
    );

    // Single-device reference answers.
    let mut session = Session::new(&graph)?;
    let opts = RunOptions::default();
    let single_bfs = session.run(Query::Bfs { src: 0 }, &opts)?;
    let single_sssp = session.run(Query::Sssp { src: 0 }, &opts)?;

    // Scale the same queries over 1/2/4/8 devices linked by PCIe. Each
    // shard runs its own adaptive runtime over its owned node range;
    // boundary updates travel between devices once per superstep.
    println!("\nBFS scaling over simulated devices (PCIe interconnect):");
    println!("  shards  total_ms  exchange_ms  supersteps  cut%");
    for shards in [1usize, 2, 4, 8] {
        let mut sg = ShardedGraph::new(&graph, shards)?;
        let r = sg.run(Query::Bfs { src: 0 }, &opts)?;
        assert_eq!(
            r.values, single_bfs.values,
            "sharded BFS must be bit-identical"
        );
        assert_eq!(r.accounting_gap(), 0.0, "time ledger must balance exactly");
        println!(
            "  {:>6}  {:>8.2}  {:>11.2}  {:>10}  {:>4.1}",
            shards,
            r.total_ms(),
            r.exchange_ns / 1e6,
            r.supersteps,
            100.0 * r.cut_fraction
        );
    }

    // Partitioning strategy and interconnect are pluggable: a
    // degree-balanced partition evens out per-device edge work, and
    // NVLink-class bandwidth shrinks the exchange share. Neither is
    // allowed to change a single bit of the answer.
    let mut balanced = ShardedGraph::with_config(
        &graph,
        4,
        PartitionStrategy::DegreeBalanced,
        DeviceConfig::tesla_c2070(),
        Interconnect::nvlink(),
    )?;
    let r = balanced.run(Query::Sssp { src: 0 }, &opts)?;
    assert_eq!(
        r.values, single_sssp.values,
        "sharded SSSP must be bit-identical"
    );
    println!(
        "\nSSSP on 4 degree-balanced shards over NVLink: {:.2} ms total, {:.2} ms exchange \
         ({} rounds, {} bytes moved)",
        r.total_ms(),
        r.exchange_ns / 1e6,
        r.exchange_rounds,
        r.exchange_bytes
    );

    // The per-shard ledger shows where time and traffic went.
    println!("\nper-shard ledger (SSSP, degree-balanced):");
    for s in &r.per_shard {
        println!(
            "  shard {}: {} owned + {} ghosts, {} local edges, {:.2} ms device time, \
             {} pairs sent, {} variant switches",
            s.shard,
            s.owned,
            s.ghosts,
            s.local_edges,
            s.device_ns / 1e6,
            s.pairs_sent,
            s.switches
        );
    }
    println!("\nall sharded runs verified bit-identical to the single device");
    Ok(())
}
