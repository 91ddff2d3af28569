//! Incremental edge-list builder producing validated [`CsrGraph`]s.

use crate::csr::{CsrGraph, NodeId};
use crate::error::GraphError;

/// Accumulates directed edges and converts them to CSR form.
///
/// Duplicate edges are either kept (default) or deduplicated keeping the
/// minimum weight via [`GraphBuilder::dedup`]. Self-loops are allowed; graph
/// algorithms in this workspace tolerate them (a self-loop never improves a
/// level or distance).
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId, u32)>,
    weighted: bool,
    dedup: bool,
}

impl GraphBuilder {
    /// A builder for a graph with exactly `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
            weighted: false,
            dedup: false,
        }
    }

    /// Number of nodes the final graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Enable duplicate-edge removal at build time (minimum weight wins).
    pub fn dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Adds an unweighted directed edge (weight 1).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<(), GraphError> {
        self.push(src, dst, 1, false)
    }

    /// Adds a weighted directed edge.
    pub fn add_weighted_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        w: u32,
    ) -> Result<(), GraphError> {
        self.push(src, dst, w, true)
    }

    /// Adds both `(src, dst)` and `(dst, src)` (undirected edge).
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        self.add_edge(a, b)?;
        self.add_edge(b, a)
    }

    /// Adds both directions with the same weight.
    pub fn add_undirected_weighted_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        w: u32,
    ) -> Result<(), GraphError> {
        self.add_weighted_edge(a, b, w)?;
        self.add_weighted_edge(b, a, w)
    }

    fn push(&mut self, src: NodeId, dst: NodeId, w: u32, weighted: bool) -> Result<(), GraphError> {
        let n = self.node_count as u64;
        for &v in &[src, dst] {
            if (v as u64) >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: v as u64,
                    node_count: n,
                });
            }
        }
        if self.edges.len() as u64 + 1 > u32::MAX as u64 {
            return Err(GraphError::TooLarge {
                what: "edges",
                requested: self.edges.len() as u64 + 1,
            });
        }
        self.weighted |= weighted;
        self.edges.push((src, dst, w));
        Ok(())
    }

    /// Finalizes the builder into a CSR graph. Edges are grouped by source
    /// node; the relative order of a node's out-edges follows insertion
    /// order (or sorted destination order after [`GraphBuilder::dedup`]).
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        check_node_count(self.node_count)?;
        let n = self.node_count;
        let mut degree = vec![0u32; n];
        for &(src, _, _) in &self.edges {
            degree[src as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        // Stable counting sort by source: each row keeps insertion order.
        // An edge is packed as `dst << 32 | weight`, so integer order is
        // `(dst, weight)` order.
        let mut row_edges = vec![0u64; self.edges.len()];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (src, dst, w) in self.edges {
            let slot = cursor[src as usize] as usize;
            cursor[src as usize] += 1;
            row_edges[slot] = u64::from(dst) << 32 | u64::from(w);
        }
        if self.dedup {
            dedup_rows(&mut offsets, &mut row_edges);
        }
        let cols = row_edges.iter().map(|&e| (e >> 32) as NodeId).collect();
        let weights = self
            .weighted
            .then(|| row_edges.iter().map(|&e| e as u32).collect());
        CsrGraph::from_raw(offsets, cols, weights)
    }

    /// Convenience: a CSR graph from a slice of `(src, dst)` pairs.
    pub fn from_edges(
        node_count: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<CsrGraph, GraphError> {
        let mut b = GraphBuilder::new(node_count);
        for &(s, d) in edges {
            b.add_edge(s, d)?;
        }
        b.build()
    }

    /// Convenience: a CSR graph from `(src, dst, weight)` triples. The
    /// result is weighted even when `edges` is empty: the weight array
    /// comes from the caller's intent, not from how many edges happened
    /// to be pushed.
    pub fn from_weighted_edges(
        node_count: usize,
        edges: &[(NodeId, NodeId, u32)],
    ) -> Result<CsrGraph, GraphError> {
        let mut b = GraphBuilder::new(node_count);
        b.weighted = true;
        for &(s, d, w) in edges {
            b.add_weighted_edge(s, d, w)?;
        }
        b.build()
    }
}

/// Rejects node counts whose ids or offsets leave the device's `u32`.
pub(crate) fn check_node_count(n: usize) -> Result<(), GraphError> {
    if n as u64 >= u32::MAX as u64 {
        return Err(GraphError::TooLarge {
            what: "nodes",
            requested: n as u64,
        });
    }
    Ok(())
}

/// An edge count as a CSR row offset, or `TooLarge` past `u32`.
pub(crate) fn edge_offset(edges: usize) -> Result<u32, GraphError> {
    u32::try_from(edges).map_err(|_| GraphError::TooLarge {
        what: "edges",
        requested: edges as u64,
    })
}

/// The dedup rule, for one CSR row: sorts `row` and keeps the first
/// entry per destination `dst(entry)`, compacted to the front. Returns
/// the kept length. With entries packed `dst << 32 | weight`, the
/// minimum weight wins; with bare destinations, each survives once.
pub(crate) fn sort_dedup_row<T: Ord + Copy>(row: &mut [T], dst: impl Fn(T) -> NodeId) -> usize {
    row.sort_unstable();
    let mut kept = 0;
    for e in 0..row.len() {
        if kept == 0 || dst(row[kept - 1]) != dst(row[e]) {
            row[kept] = row[e];
            kept += 1;
        }
    }
    kept
}

/// Applies [`sort_dedup_row`] to every CSR row of packed
/// `dst << 32 | weight` edges, compacting `row_edges` in place and
/// rewriting `offsets`. Rows are already grouped by source, and
/// `(dst, weight)` is a total order, so this equals a global sort of the
/// `(src, dst, weight)` tuples followed by a `(src, dst)` dedup.
fn dedup_rows(offsets: &mut [u32], row_edges: &mut Vec<u64>) {
    let mut kept = 0usize;
    for v in 0..offsets.len() - 1 {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        offsets[v] = kept as u32;
        let len = sort_dedup_row(&mut row_edges[lo..hi], |e| (e >> 32) as NodeId);
        row_edges.copy_within(lo..lo + len, kept);
        kept += len;
    }
    if let Some(last) = offsets.last_mut() {
        *last = kept as u32;
    }
    row_edges.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_builder_with_no_edges_stays_weighted() {
        let g = GraphBuilder::from_weighted_edges(3, &[]).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.weight_slice(), Some(&[][..]));
    }

    #[test]
    fn builds_in_insertion_order_per_node() {
        let g = GraphBuilder::from_edges(3, &[(1, 2), (0, 2), (0, 1), (1, 0)]).unwrap();
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![2, 1]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(g.neighbors(2).count(), 0);
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(0, 2).is_err());
        assert!(b.add_edge(2, 0).is_err());
        assert!(b.add_edge(1, 1).is_ok());
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = GraphBuilder::new(2).dedup();
        b.add_weighted_edge(0, 1, 9).unwrap();
        b.add_weighted_edge(0, 1, 3).unwrap();
        b.add_weighted_edge(0, 1, 7).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weighted_neighbors(0).next(), Some((1, 3)));
    }

    #[test]
    fn dedup_preserves_distinct_edges() {
        let mut b = GraphBuilder::new(3).dedup();
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_weighted_edge(0, 1, 5).unwrap();
        let g = b.build().unwrap();
        assert!(g.is_symmetric());
        assert_eq!(g.weighted_neighbors(1).next(), Some((0, 5)));
    }

    #[test]
    fn mixed_weighted_and_unweighted_edges_default_weight_one() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_weighted_edge(1, 2, 8).unwrap();
        let g = b.build().unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.weighted_neighbors(0).next(), Some((1, 1)));
        assert_eq!(g.weighted_neighbors(1).next(), Some((2, 8)));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
    }
}
