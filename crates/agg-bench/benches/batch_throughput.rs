//! Criterion bench for the batched-query session layer: a mixed
//! BFS/SSSP/CC/PageRank batch served one-by-one on fresh uploads, through
//! a sequential [`Session`], and through a parallel one. The queries/sec
//! numbers of modeled time are what `repro batch` tabulates; this bench
//! tracks the *host-side* cost of the three serving paths.

use agg_core::{Query, RunOptions, Session};
use agg_gpu_sim::DeviceConfig;
use agg_graph::{Dataset, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

fn mixed_batch(n: u32) -> Vec<Query> {
    vec![
        Query::Bfs { src: 0 },
        Query::Bfs { src: n / 2 },
        Query::Sssp { src: 0 },
        Query::Sssp { src: n / 3 },
        Query::Cc,
        Query::pagerank(),
    ]
}

fn bench(c: &mut Criterion) {
    let graph = Dataset::Amazon.generate_weighted(Scale::Tiny, 42, 64);
    let queries = mixed_batch(graph.node_count() as u32);
    let opts = RunOptions::default();
    let mut g = c.benchmark_group("batch_throughput/amazon-tiny");
    g.sample_size(10);
    g.bench_function("one_by_one_fresh_graph", |b| {
        b.iter(|| {
            for q in &queries {
                let mut session = Session::new(&graph).expect("upload");
                session.run(*q, &opts).expect("single run");
            }
        })
    });
    g.bench_function("session_sequential", |b| {
        let mut session = Session::new(&graph).expect("session");
        b.iter(|| session.run_batch(&queries, &opts).expect("batch"))
    });
    g.bench_function("session_parallel_4", |b| {
        let mut session =
            Session::parallel(&graph, DeviceConfig::tesla_c2070(), 4).expect("session");
        b.iter(|| session.run_batch(&queries, &opts).expect("batch"))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
