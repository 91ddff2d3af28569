//! Serial PageRank baselines (extension): an instrumented delta/push
//! implementation (the CPU mirror of the GPU kernels) and a power-
//! iteration oracle for accuracy checks.
//!
//! Both use the same dangling-node convention as the GPU kernels: mass
//! pushed by a node with no out-edges is dropped (so rank totals come out
//! slightly below `n`); teleport contributes `1 - d` to every node.

use crate::cost::{CpuCostModel, CpuCounters};
use agg_graph::CsrGraph;
use std::collections::VecDeque;

/// Result of a serial PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankRun {
    /// Final rank per node.
    pub ranks: Vec<f32>,
    /// Work counters.
    pub counters: CpuCounters,
    /// Modeled time, ns.
    pub time_ns: f64,
}

/// Delta (push-style) PageRank: worklist of nodes whose residual exceeds
/// `epsilon`; claiming a node folds its residual into its rank and pushes
/// `residual * damping / outdeg` to each neighbor.
pub fn pagerank_delta(
    g: &CsrGraph,
    damping: f32,
    epsilon: f32,
    model: &CpuCostModel,
) -> PageRankRun {
    let n = g.node_count();
    let mut rank = vec![0.0f32; n];
    let mut residual = vec![1.0 - damping; n];
    let mut in_queue = vec![true; n];
    let mut queue: VecDeque<u32> = (0..n as u32).collect();
    let mut c = CpuCounters::default();
    while let Some(u) = queue.pop_front() {
        c.queue_ops += 1;
        in_queue[u as usize] = false;
        let r = residual[u as usize];
        residual[u as usize] = 0.0;
        rank[u as usize] += r;
        c.nodes += 1;
        let deg = g.out_degree(u);
        if deg == 0 {
            continue; // dangling: pushed mass dropped
        }
        let push = r * damping / deg as f32;
        for v in g.neighbors(u) {
            c.edges += 1;
            let old = residual[v as usize];
            residual[v as usize] = old + push;
            if old < epsilon && old + push >= epsilon && !in_queue[v as usize] {
                in_queue[v as usize] = true;
                queue.push_back(v);
                c.queue_ops += 1;
            }
        }
    }
    let time_ns = model.modeled_ns(&c);
    PageRankRun {
        ranks: rank,
        counters: c,
        time_ns,
    }
}

/// Power-iteration oracle: `p_{k+1}[v] = (1 - d) + d * Σ_{u->v} p_k[u] / outdeg(u)`
/// with dangling mass dropped. Iterates until the max per-node change is
/// below `tol` (or `max_iter`).
pub fn pagerank_power(g: &CsrGraph, damping: f32, tol: f32, max_iter: u32) -> Vec<f32> {
    let n = g.node_count();
    let mut p = vec![1.0f32; n];
    for _ in 0..max_iter {
        let mut next = vec![1.0 - damping; n];
        for u in 0..n as u32 {
            let deg = g.out_degree(u);
            if deg == 0 {
                continue;
            }
            let share = damping * p[u as usize] / deg as f32;
            for v in g.neighbors(u) {
                next[v as usize] += share;
            }
        }
        let delta = p
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        p = next;
        if delta < tol {
            break;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_graph::{Dataset, GraphBuilder, Scale};

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn delta_converges_to_power_iteration_fixpoint() {
        for d in [Dataset::P2p, Dataset::Google] {
            let g = d.generate(Scale::Tiny, 91);
            let delta = pagerank_delta(&g, 0.85, 1e-6, &CpuCostModel::default());
            let power = pagerank_power(&g, 0.85, 1e-7, 500);
            let diff = max_abs_diff(&delta.ranks, &power);
            assert!(diff < 1e-3, "{}: max diff {diff}", d.name());
        }
    }

    #[test]
    fn ring_graph_has_uniform_ranks() {
        let n = 10u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = GraphBuilder::from_edges(n as usize, &edges).unwrap();
        let run = pagerank_delta(&g, 0.85, 1e-7, &CpuCostModel::default());
        for &r in &run.ranks {
            assert!((r - 1.0).abs() < 1e-3, "ring rank {r} != 1.0");
        }
    }

    #[test]
    fn hub_outranks_leaves() {
        // star pointing inward: all leaves -> hub 0
        let edges: Vec<_> = (1..8u32).map(|v| (v, 0)).collect();
        let g = GraphBuilder::from_edges(8, &edges).unwrap();
        let run = pagerank_delta(&g, 0.85, 1e-7, &CpuCostModel::default());
        for v in 1..8 {
            assert!(
                run.ranks[0] > 3.0 * run.ranks[v],
                "hub {} leaf {}",
                run.ranks[0],
                run.ranks[v]
            );
        }
    }

    #[test]
    fn total_mass_is_bounded_by_teleport_plus_damping() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 92);
        let n = g.node_count() as f32;
        let run = pagerank_delta(&g, 0.85, 1e-7, &CpuCostModel::default());
        let total: f32 = run.ranks.iter().sum();
        assert!(total <= n * 1.001, "total {total} exceeds node count {n}");
        assert!(total > n * 0.5, "total {total} suspiciously low");
        assert!(run.counters.edges > 0 && run.time_ns > 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        assert!(pagerank_delta(&g, 0.85, 1e-6, &CpuCostModel::default())
            .ranks
            .is_empty());
        assert!(pagerank_power(&g, 0.85, 1e-6, 10).is_empty());
    }
}
