//! Topology statistics: the columns of the paper's Table 1, the outdegree
//! histograms of Figure 1, and the aggregate attributes consumed by the
//! adaptive runtime's graph inspector (Section VI).

use crate::csr::{CsrGraph, NodeId, INF};
use std::collections::VecDeque;

/// Min / max / mean of the outdegree distribution (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest outdegree over all nodes.
    pub min: u32,
    /// Largest outdegree over all nodes.
    pub max: u32,
    /// Mean outdegree (`edges / nodes`).
    pub avg: f64,
    /// Population variance of the outdegree.
    pub variance: f64,
}

impl DegreeStats {
    /// Computes degree statistics in a single pass.
    pub fn compute(g: &CsrGraph) -> DegreeStats {
        let n = g.node_count();
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                avg: 0.0,
                variance: 0.0,
            };
        }
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut sum_sq = 0f64;
        for v in 0..n {
            let d = g.out_degree(v as u32) as u32;
            min = min.min(d);
            max = max.max(d);
            sum += d as u64;
            sum_sq += (d as f64) * (d as f64);
        }
        let avg = sum as f64 / n as f64;
        let variance = (sum_sq / n as f64 - avg * avg).max(0.0);
        DegreeStats {
            min,
            max,
            avg,
            variance,
        }
    }
}

/// Full per-graph characterization (Table 1 row + inspector inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Outdegree summary.
    pub degree: DegreeStats,
}

impl GraphStats {
    /// Computes the Table 1 row for `g`.
    pub fn compute(g: &CsrGraph) -> GraphStats {
        GraphStats {
            nodes: g.node_count(),
            edges: g.edge_count(),
            degree: DegreeStats::compute(g),
        }
    }
}

/// Histogram of outdegrees: `histogram[d]` = number of nodes with outdegree
/// `d`, for `d <= cap`; nodes with outdegree `> cap` land in the final
/// bucket. This is the data behind the paper's Figure 1.
pub fn degree_histogram(g: &CsrGraph, cap: usize) -> Vec<usize> {
    let mut hist = vec![0usize; cap + 2];
    for v in 0..g.node_count() {
        let d = g.out_degree(v as u32);
        hist[d.min(cap + 1)] += 1;
    }
    hist
}

/// Fraction of nodes whose outdegree lies in `range` (used for asserting
/// generator shapes, e.g. "70% of Amazon nodes have outdegree 10").
pub fn degree_fraction(g: &CsrGraph, range: std::ops::RangeInclusive<usize>) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    let c = (0..g.node_count())
        .filter(|&v| range.contains(&g.out_degree(v as u32)))
        .count();
    c as f64 / g.node_count() as f64
}

/// BFS eccentricity of `src`: the largest finite BFS level reached, plus
/// the number of reached nodes.
pub fn bfs_eccentricity(g: &CsrGraph, src: NodeId) -> (u32, usize) {
    let n = g.node_count();
    let mut level = vec![INF; n];
    level[src as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(src);
    let mut max_level = 0;
    let mut reached = 1usize;
    while let Some(u) = q.pop_front() {
        let next = level[u as usize] + 1;
        for v in g.neighbors(u) {
            if level[v as usize] == INF {
                level[v as usize] = next;
                max_level = max_level.max(next);
                reached += 1;
                q.push_back(v);
            }
        }
    }
    (max_level, reached)
}

/// Lower bound on the graph diameter via a double BFS sweep: run BFS from
/// `src`, then from the farthest node found. Exact on trees, a good
/// estimate on road-like graphs; we use it to verify that the CO-road
/// analog has the "more than 1000 levels" property the paper relies on.
pub fn approx_diameter(g: &CsrGraph, src: NodeId) -> u32 {
    let n = g.node_count();
    if n == 0 {
        return 0;
    }
    let far = farthest_node(g, src);
    let (ecc, _) = bfs_eccentricity(g, far);
    ecc
}

fn farthest_node(g: &CsrGraph, src: NodeId) -> NodeId {
    let n = g.node_count();
    let mut level = vec![INF; n];
    level[src as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(src);
    let mut far = src;
    let mut far_level = 0;
    while let Some(u) = q.pop_front() {
        let next = level[u as usize] + 1;
        for v in g.neighbors(u) {
            if level[v as usize] == INF {
                level[v as usize] = next;
                if next > far_level {
                    far_level = next;
                    far = v;
                }
                q.push_back(v);
            }
        }
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph(n: usize) -> CsrGraph {
        let edges: Vec<_> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        GraphBuilder::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn degree_stats_on_star() {
        // node 0 -> 1..=4
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let s = DegreeStats::compute(&g);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 4);
        assert!((s.avg - 0.8).abs() < 1e-12);
        // degrees: [4,0,0,0,0]; var = E[d^2] - E[d]^2 = 16/5 - 0.64 = 2.56
        assert!((s.variance - 2.56).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_on_empty_graph() {
        let g = CsrGraph::empty(0);
        let s = DegreeStats::compute(&g);
        assert_eq!((s.min, s.max), (0, 0));
        assert_eq!(s.avg, 0.0);
    }

    #[test]
    fn histogram_caps_large_degrees() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 0)]).unwrap();
        let h = degree_histogram(&g, 2);
        // degrees: 4,1,0,0,0 -> bucket0: 3, bucket1: 1, bucket2: 0, overflow: 1
        assert_eq!(h, vec![3, 1, 0, 1]);
    }

    #[test]
    fn degree_fraction_counts_range() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // degrees 1,1,1,0
        assert!((degree_fraction(&g, 1..=1) - 0.75).abs() < 1e-12);
        assert!((degree_fraction(&g, 0..=0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn eccentricity_of_path() {
        let g = path_graph(10);
        let (ecc, reached) = bfs_eccentricity(&g, 0);
        assert_eq!(ecc, 9);
        assert_eq!(reached, 10);
        let (ecc_mid, _) = bfs_eccentricity(&g, 5);
        assert_eq!(ecc_mid, 4); // directed path: only forward reachable
    }

    #[test]
    fn approx_diameter_on_undirected_path_is_exact() {
        let mut b = GraphBuilder::new(8);
        for v in 0..7u32 {
            b.add_undirected_edge(v, v + 1).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(approx_diameter(&g, 3), 7);
    }

    #[test]
    fn graph_stats_compose() {
        let g = path_graph(4);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.degree.max, 1);
    }
}
