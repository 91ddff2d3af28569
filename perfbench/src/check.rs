//! Correctness gate: every answer the benchmark receives is compared with
//! the `agg-cpu` serial oracle for the same graph and query.
//!
//! BFS levels, SSSP distances and CC labels must match bit for bit.
//! PageRank ranks are compared with the converged power-iteration
//! reference (`agg_cpu::pagerank_power`, tolerance 1e-7): delta-PageRank
//! stops pushing once every residual is below `epsilon`, which leaves
//! each rank within a relative `epsilon / (1 - damping)` of the fixpoint.
//! The check accepts [`PAGERANK_MARGIN`] times that bound, the margin
//! covering f32 accumulation order. (An absolute bound does not fit: the
//! error scales with the rank, so hubs of heavy-tailed graphs exceed any
//! fixed bound that still catches errors on ordinary nodes.)

use agg_core::Query;
use agg_cpu::CpuCostModel;
use agg_graph::CsrGraph;

/// Slack over the delta-PageRank truncation bound.
pub const PAGERANK_MARGIN: f32 = 1.5;

/// What the oracle says a query must return, and what the serial CPU
/// baseline costs on the modeled clock.
pub struct Oracle {
    pub expected: Expected,
    /// Modeled serial-CPU time of the baseline run, ns.
    pub cpu_ns: f64,
}

pub enum Expected {
    Exact(Vec<u32>),
    /// Converged ranks and the relative error a correct run stays within.
    Ranks {
        ranks: Vec<f32>,
        rel_tol: f32,
    },
}

impl Oracle {
    /// Runs the serial baseline for `query` on `g`: queue BFS, heap
    /// Dijkstra, connected components, and delta PageRank (timed), with
    /// power iteration as the PageRank reference.
    pub fn run(g: &CsrGraph, query: Query) -> Oracle {
        let model = CpuCostModel::default();
        match query {
            Query::Bfs { src } => {
                let r = agg_cpu::bfs(g, src, &model);
                Oracle {
                    expected: Expected::Exact(r.result),
                    cpu_ns: r.time_ns,
                }
            }
            Query::Sssp { src } => {
                let r = agg_cpu::dijkstra(g, src, &model);
                Oracle {
                    expected: Expected::Exact(r.result),
                    cpu_ns: r.time_ns,
                }
            }
            Query::Cc => {
                let r = agg_cpu::connected_components(g, &model);
                Oracle {
                    expected: Expected::Exact(r.result),
                    cpu_ns: r.time_ns,
                }
            }
            Query::PageRank { config } => {
                let timed = agg_cpu::pagerank_delta(g, config.damping, config.epsilon, &model);
                Oracle {
                    expected: Expected::Ranks {
                        ranks: agg_cpu::pagerank_power(g, config.damping, 1e-7, 500),
                        rel_tol: PAGERANK_MARGIN * config.epsilon / (1.0 - config.damping),
                    },
                    cpu_ns: timed.time_ns,
                }
            }
        }
    }

    /// True when `values` (a `RunReport::values`-style array) is the
    /// right answer.
    pub fn accepts(&self, values: &[u32]) -> bool {
        match &self.expected {
            Expected::Exact(v) => v.as_slice() == values,
            Expected::Ranks { ranks, rel_tol } => {
                ranks.len() == values.len()
                    && ranks
                        .iter()
                        .zip(values)
                        .all(|(&e, &bits)| (f32::from_bits(bits) - e).abs() <= rel_tol * e)
            }
        }
    }
}
