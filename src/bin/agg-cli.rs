//! `agg-cli` — run graph algorithms on the simulated GPU from the shell.
//!
//! ```text
//! agg-cli <bfs|sssp|cc|pagerank> [options]
//!
//! graph source (one of):
//!   --input FILE          DIMACS .gr (weighted) or SNAP edge list
//!   --dataset NAME        synthetic analog: co-road|citeseer|p2p|amazon|google|sns
//!                         [--scale tiny|small|paper] [--seed N]
//!
//! run options:
//!   --src N               traversal source (default 0; ignored by cc/pagerank)
//!   --strategy S          adaptive (default) | a static variant (e.g. U_B_QU)
//!                         | vwarp:<width>:<bitmap|queue> | hybrid:<threshold>
//!   --damping F --epsilon F   pagerank parameters
//!   --trace               print the per-iteration trace
//!   --output FILE         write per-node results as CSV
//! ```
//!
//! Example:
//!
//! ```text
//! agg-cli sssp --dataset amazon --scale tiny --strategy U_T_BM --trace
//! agg-cli bfs --input web.txt --src 42 --output levels.csv
//! ```

use agg::prelude::*;
use std::io::Write as _;
use std::process::exit;

struct Args {
    algo: String,
    input: Option<String>,
    dataset: Option<Dataset>,
    scale: Scale,
    seed: u64,
    src: u32,
    strategy: String,
    damping: f32,
    epsilon: f32,
    trace: bool,
    output: Option<String>,
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun with no arguments for usage (see module docs)");
    exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let algo = it.next().unwrap_or_else(|| {
        eprintln!(
            "usage: agg-cli <bfs|sssp|cc|pagerank> [--input FILE | --dataset NAME] \
             [--scale S] [--seed N] [--src N] [--strategy S] [--trace] [--output FILE]"
        );
        exit(2);
    });
    let mut a = Args {
        algo,
        input: None,
        dataset: None,
        scale: Scale::Tiny,
        seed: 42,
        src: 0,
        strategy: "adaptive".into(),
        damping: 0.85,
        epsilon: 1e-4,
        trace: false,
        output: None,
    };
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage_and_exit("missing flag value"))
        };
        match flag.as_str() {
            "--input" => a.input = Some(val()),
            "--dataset" => {
                let v = val();
                a.dataset =
                    Some(Dataset::parse(&v).unwrap_or_else(|| usage_and_exit("unknown dataset")));
            }
            "--scale" => {
                a.scale = Scale::parse(&val()).unwrap_or_else(|| usage_and_exit("unknown scale"));
            }
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage_and_exit("bad seed")),
            "--src" => a.src = val().parse().unwrap_or_else(|_| usage_and_exit("bad src")),
            "--strategy" => a.strategy = val(),
            "--damping" => {
                a.damping = val()
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad damping"));
            }
            "--epsilon" => {
                a.epsilon = val()
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad epsilon"));
            }
            "--trace" => a.trace = true,
            "--output" => a.output = Some(val()),
            other => usage_and_exit(&format!("unknown flag '{other}'")),
        }
    }
    a
}

fn load_graph(a: &Args, weighted: bool) -> CsrGraph {
    if let Some(path) = &a.input {
        agg::graph::io::read_graph_file(path)
            .unwrap_or_else(|e| usage_and_exit(&format!("cannot read {path}: {e}")))
    } else if let Some(d) = a.dataset {
        if weighted {
            d.generate_weighted(a.scale, a.seed, 64)
        } else {
            d.generate(a.scale, a.seed)
        }
    } else {
        usage_and_exit("provide --input FILE or --dataset NAME");
    }
}

fn parse_strategy(s: &str) -> Strategy {
    if s.eq_ignore_ascii_case("adaptive") {
        return Strategy::Adaptive;
    }
    if let Some(v) = Variant::parse(s) {
        return Strategy::Static(v);
    }
    if let Some(rest) = s.strip_prefix("vwarp:") {
        let mut parts = rest.split(':');
        let width: u32 = parts
            .next()
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| usage_and_exit("vwarp:<width>:<bitmap|queue>"));
        let workset = match parts.next() {
            Some("bitmap") => WorkSet::Bitmap,
            Some("queue") | None => WorkSet::Queue,
            _ => usage_and_exit("vwarp workset must be bitmap or queue"),
        };
        return Strategy::VirtualWarp { width, workset };
    }
    if let Some(t) = s.strip_prefix("hybrid:") {
        let threshold = t
            .parse()
            .unwrap_or_else(|_| usage_and_exit("hybrid:<threshold>"));
        return Strategy::Hybrid {
            gpu_threshold: threshold,
        };
    }
    usage_and_exit(&format!("unknown strategy '{s}'"));
}

fn main() {
    let a = parse_args();
    let weighted = a.algo == "sssp";
    let graph = load_graph(&a, weighted);
    let stats = GraphStats::compute(&graph);
    eprintln!(
        "graph: {} nodes, {} edges, outdegree min/avg/max = {}/{:.1}/{}",
        stats.nodes, stats.edges, stats.degree.min, stats.degree.avg, stats.degree.max
    );
    if graph.node_count() == 0 {
        eprintln!("empty graph; nothing to do");
        return;
    }
    if a.src as usize >= graph.node_count() {
        usage_and_exit("--src out of range");
    }

    let mut builder = RunOptions::builder()
        .strategy(parse_strategy(&a.strategy))
        .census(CensusMode::Sampled);
    if a.trace {
        builder = builder.trace();
    }
    let options = builder.build();
    let query = match a.algo.as_str() {
        "bfs" => Query::Bfs { src: a.src },
        "sssp" => Query::Sssp { src: a.src },
        "cc" => Query::Cc,
        "pagerank" => Query::PageRank {
            config: PageRankConfig {
                damping: a.damping,
                epsilon: a.epsilon,
            },
        },
        other => usage_and_exit(&format!("unknown algorithm '{other}'")),
    };
    let mut session = Session::new(&graph).unwrap_or_else(|e| usage_and_exit(&e.to_string()));
    let report = session
        .run(query, &options)
        .unwrap_or_else(|e| usage_and_exit(&e.to_string()));

    println!(
        "{}: {} iterations, {} launches, {} switches, {:.3} ms modeled GPU time{}",
        a.algo,
        report.iterations,
        report.launches,
        report.switches,
        report.total_ms(),
        if report.host_ns > 0.0 {
            format!(" ({:.3} ms on the host CPU)", report.host_ns / 1e6)
        } else {
            String::new()
        }
    );
    match a.algo.as_str() {
        "bfs" | "sssp" => {
            let reached = report.values.iter().filter(|&&v| v != INF).count();
            let max = report
                .values
                .iter()
                .filter(|&&v| v != INF)
                .max()
                .copied()
                .unwrap_or(0);
            println!(
                "reached {reached}/{} nodes; max value {max}",
                report.values.len()
            );
        }
        "cc" => {
            let mut labels = report.values.clone();
            labels.sort_unstable();
            labels.dedup();
            println!("{} components", labels.len());
        }
        "pagerank" => {
            let ranks = report.values_as_f32();
            let total: f32 = ranks.iter().sum();
            let best = ranks
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            println!(
                "total mass {total:.1}; top node {} with rank {:.3}",
                best.0, best.1
            );
        }
        _ => unreachable!(),
    }
    if a.trace {
        for t in &report.trace {
            println!(
                "iter {:>4} [{}{}{}] ws={:<9} {:.1} us",
                t.iteration,
                t.variant.name(),
                t.vwarp_width.map(|w| format!(" vw{w}")).unwrap_or_default(),
                if t.on_host { " host" } else { "" },
                t.ws_size
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "?".into()),
                t.iter_ns / 1e3,
            );
        }
    }
    if let Some(path) = &a.output {
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| usage_and_exit(&format!("cannot create {path}: {e}")));
        writeln!(f, "node,value").unwrap();
        if a.algo == "pagerank" {
            for (i, r) in report.values_as_f32().iter().enumerate() {
                writeln!(f, "{i},{r}").unwrap();
            }
        } else {
            for (i, v) in report.values.iter().enumerate() {
                writeln!(f, "{i},{v}").unwrap();
            }
        }
        eprintln!("wrote {path}");
    }
}
