#![warn(missing_docs)]

//! Facade crate for the adaptive GPU graph runtime workspace — a Rust
//! reproduction of *"Deploying Graph Algorithms on GPUs: an Adaptive
//! Solution"* (Li & Becchi, IPDPSW 2013).
//!
//! Re-exports the public API of every member crate so downstream users can
//! depend on a single crate:
//!
//! ```
//! use agg::prelude::*;
//!
//! let graph = Dataset::Amazon.generate_weighted(Scale::Tiny, 42, 64);
//! let mut gg = GpuGraph::new(&graph).unwrap();
//! let report = gg.run(Query::Bfs { src: 0 }, &RunOptions::default()).unwrap();
//! assert_eq!(report.values.len(), graph.node_count());
//!
//! // Many queries against one resident graph: use a Session.
//! let mut session = Session::new(&graph).unwrap();
//! let batch = session
//!     .run_batch(
//!         &[Query::Bfs { src: 0 }, Query::Sssp { src: 3 }, Query::Cc],
//!         &RunOptions::default(),
//!     )
//!     .unwrap();
//! assert_eq!(batch.queries.len(), 3);
//! ```

pub use agg_core as core;
pub use agg_cpu as cpu;
pub use agg_gpu_sim as gpu_sim;
pub use agg_graph as graph;
pub use agg_kernels as kernels;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use agg_core::{
        AdaptiveConfig, Algo, BatchReport, CensusMode, GpuGraph, PageRankConfig, Query,
        QueryReport, RunOptions, RunOptionsBuilder, RunReport, Session, ShardReport, ShardSlice,
        ShardedGraph, Strategy,
    };
    pub use agg_cpu::{bfs as cpu_bfs, dijkstra as cpu_dijkstra, CpuCostModel};
    pub use agg_gpu_sim::{Device, DeviceConfig, ExecEngine, Interconnect, SimFidelity};
    pub use agg_graph::{
        partition, CsrGraph, Dataset, GraphBuilder, GraphStats, Partition, PartitionStrategy,
        Scale, ShardPlan, INF,
    };
    pub use agg_kernels::{AlgoOrder, Mapping, Variant, WorkSet};
}
