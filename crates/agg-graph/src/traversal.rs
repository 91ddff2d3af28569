//! Plain serial reference traversals used as test oracles.
//!
//! These are the textbook algorithms with no instrumentation. The
//! `agg-cpu` crate hosts the *instrumented* baselines whose modeled times
//! feed the paper's speedup tables; the functions here exist so every other
//! crate can check correctness against an independent implementation.

use crate::csr::{CsrGraph, NodeId, INF};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// BFS levels from `src`: `result[v]` is the minimum number of edges on a
/// path `src -> v`, or [`INF`] if unreachable.
pub fn bfs_levels(g: &CsrGraph, src: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut level = vec![INF; n];
    if n == 0 {
        return level;
    }
    level[src as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let next = level[u as usize] + 1;
        for v in g.neighbors(u) {
            if level[v as usize] == INF {
                level[v as usize] = next;
                q.push_back(v);
            }
        }
    }
    level
}

/// Dijkstra single-source shortest paths from `src` with non-negative
/// `u32` weights; unreachable nodes get [`INF`]. Distance additions
/// saturate, so pathological weight sums cannot wrap.
pub fn dijkstra(g: &CsrGraph, src: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![INF; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.weighted_neighbors(u) {
            let nd = d.saturating_add(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Bellman-Ford style relaxation to fixpoint (the serial analog of the
/// paper's *unordered* SSSP). Returns the same distances as [`dijkstra`]
/// for non-negative weights.
pub fn bellman_ford(g: &CsrGraph, src: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![INF; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut frontier = vec![src];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            let du = dist[u as usize];
            for (v, w) in g.weighted_neighbors(u) {
                let nd = du.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    next.push(v);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    dist
}

/// Min-label propagation fixpoint: every node starts labeled with its own
/// id; labels propagate along edge direction until no edge can lower its
/// head's label. On symmetric graphs the result is the connected
/// components (each labeled by its minimum node id). Deliberately naive
/// (full edge sweeps) so it can serve as an independent oracle for the
/// GPU and CPU implementations.
pub fn min_labels(g: &CsrGraph) -> Vec<u32> {
    let n = g.node_count();
    let mut label: Vec<u32> = (0..n as u32).collect();
    loop {
        let mut changed = false;
        for (u, v, _) in g.edges() {
            if label[u as usize] < label[v as usize] {
                label[v as usize] = label[u as usize];
                changed = true;
            }
        }
        if !changed {
            return label;
        }
    }
}

/// Checks that `dist` is a valid SSSP fixpoint for `g` from `src`:
/// no edge can still relax, `dist[src] == 0`, and every finite distance is
/// realized by some in-edge (or is the source). Used by property tests.
pub fn is_sssp_fixpoint(g: &CsrGraph, src: NodeId, dist: &[u32]) -> bool {
    if dist.len() != g.node_count() {
        return false;
    }
    if g.node_count() == 0 {
        return true;
    }
    if dist[src as usize] != 0 {
        return false;
    }
    // No relaxable edge.
    for (u, v, w) in g.edges() {
        let du = dist[u as usize];
        if du != INF && du.saturating_add(w) < dist[v as usize] {
            return false;
        }
    }
    // Every finite non-source distance is witnessed by some predecessor.
    let rev = g.reverse();
    for v in 0..g.node_count() as u32 {
        let dv = dist[v as usize];
        if v == src || dv == INF {
            continue;
        }
        let witnessed = rev
            .weighted_neighbors(v)
            .any(|(u, w)| dist[u as usize] != INF && dist[u as usize].saturating_add(w) == dv);
        if !witnessed {
            return false;
        }
    }
    true
}

/// Checks that `level` is a valid BFS level assignment for `g` from `src`.
pub fn is_bfs_levels(g: &CsrGraph, src: NodeId, level: &[u32]) -> bool {
    if level.len() != g.node_count() {
        return false;
    }
    if g.node_count() == 0 {
        return true;
    }
    if level[src as usize] != 0 {
        return false;
    }
    for (u, v, _) in g.edges() {
        let lu = level[u as usize];
        if lu != INF && lu.saturating_add(1) < level[v as usize] {
            return false; // an edge could still lower v's level
        }
    }
    let rev = g.reverse_topology();
    for v in 0..g.node_count() as u32 {
        let lv = level[v as usize];
        if v == src || lv == INF {
            continue;
        }
        let witnessed = rev
            .neighbors(v)
            .any(|u| level[u as usize] != INF && level[u as usize] + 1 == lv);
        if !witnessed {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use rand::{Rng, SeedableRng};

    fn diamond() -> CsrGraph {
        // 0 -> 1 (w 1), 0 -> 2 (w 4), 1 -> 3 (w 1), 2 -> 3 (w 1)
        GraphBuilder::from_weighted_edges(4, &[(0, 1, 1), (0, 2, 4), (1, 3, 1), (2, 3, 1)]).unwrap()
    }

    #[test]
    fn bfs_on_diamond() {
        let g = diamond();
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 1, 2]);
        assert_eq!(bfs_levels(&g, 3), vec![INF, INF, INF, 0]);
    }

    #[test]
    fn dijkstra_on_diamond() {
        let g = diamond();
        assert_eq!(dijkstra(&g, 0), vec![0, 1, 4, 2]);
    }

    #[test]
    fn bellman_ford_matches_dijkstra_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.gen_range(1..60);
            let m = rng.gen_range(0..200);
            let mut b = GraphBuilder::new(n);
            for _ in 0..m {
                b.add_weighted_edge(
                    rng.gen_range(0..n as u32),
                    rng.gen_range(0..n as u32),
                    rng.gen_range(1..50),
                )
                .unwrap();
            }
            let g = b.build().unwrap();
            let src = rng.gen_range(0..n as u32);
            assert_eq!(dijkstra(&g, src), bellman_ford(&g, src));
        }
    }

    #[test]
    fn fixpoint_validators_accept_correct_answers() {
        let g = diamond();
        assert!(is_sssp_fixpoint(&g, 0, &dijkstra(&g, 0)));
        assert!(is_bfs_levels(&g, 0, &bfs_levels(&g, 0)));
    }

    #[test]
    fn fixpoint_validators_reject_wrong_answers() {
        let g = diamond();
        assert!(!is_sssp_fixpoint(&g, 0, &[0, 1, 4, 9])); // too large, unwitnessed
        assert!(!is_sssp_fixpoint(&g, 0, &[0, 1, 4, 1])); // too small: cannot be witnessed
        assert!(!is_bfs_levels(&g, 0, &[0, 1, 1, 3]));
        assert!(!is_bfs_levels(&g, 0, &[1, 1, 1, 2])); // src level nonzero
        assert!(!is_sssp_fixpoint(&g, 0, &[0, 1])); // wrong length
    }

    #[test]
    fn min_labels_on_undirected_components() {
        let mut b = GraphBuilder::new(6);
        b.add_undirected_edge(0, 1).unwrap();
        b.add_undirected_edge(1, 2).unwrap();
        b.add_undirected_edge(4, 5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(min_labels(&g), vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn min_labels_follow_edge_direction() {
        let g = GraphBuilder::from_edges(3, &[(2, 1), (1, 0)]).unwrap();
        // labels flow 2 -> 1 -> 0 but min id (0) has no out-edges.
        assert_eq!(min_labels(&g), vec![0, 1, 2]);
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(min_labels(&g), vec![0, 0, 0]);
    }

    #[test]
    fn saturating_distances_do_not_wrap() {
        let g = GraphBuilder::from_weighted_edges(3, &[(0, 1, u32::MAX - 1), (1, 2, 10)]).unwrap();
        let d = dijkstra(&g, 0);
        assert_eq!(d[1], u32::MAX - 1);
        assert_eq!(d[2], u32::MAX); // saturated == INF sentinel, treated as unreachable-far
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let g = CsrGraph::empty(0);
        assert!(bfs_levels(&g, 0).is_empty());
        let g1 = CsrGraph::empty(1);
        assert_eq!(bfs_levels(&g1, 0), vec![0]);
        assert_eq!(dijkstra(&g1, 0), vec![0]);
    }
}
