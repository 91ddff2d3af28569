#![warn(missing_docs)]

//! The adaptive runtime — the paper's primary contribution (Section VI).
//!
//! Architecture (the paper's Figure 10):
//!
//! ```text
//!      Graph API                 [session::Session]
//!  ────────────────────
//!      Runtime
//!        graph inspector         [engine — ws-size monitoring w/ sampling]
//!        decision maker          [decision::decide — Figure 11 thresholds]
//!  ────────────────────
//!      Libraries (BFS, SSSP      [agg-kernels]
//!       x 8 variants each)
//! ```
//!
//! Every traversal iteration the engine (re)selects a kernel variant from
//! the working-set size and the graph's average outdegree, using the
//! three-threshold decision space of Figure 11. Switching is cheap by
//! construction: both working-set representations are derived from the
//! same update vector by the `workset_gen` kernel that runs each iteration
//! anyway.

pub mod config;
pub mod decision;
pub mod engine;
pub mod metrics;
pub mod session;
pub mod shard;

pub use config::{AdaptiveConfig, DegreeMode};
pub use decision::{decide, Region};
pub use engine::{
    Algo, CensusMode, CoreError, IterationRecord, PageRankConfig, Query, RunOptions,
    RunOptionsBuilder, RunReport, Strategy,
};
pub use metrics::Metrics;
pub use session::{BatchReport, QueryReport, Session};
pub use shard::{ShardReport, ShardSlice, ShardedGraph};
