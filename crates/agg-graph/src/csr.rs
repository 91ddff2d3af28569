//! Compressed sparse row (CSR) graph storage — the paper's Figure 7.
//!
//! A graph with `n` nodes and `m` directed edges is stored as two flat
//! arrays: a *node vector* of `n + 1` offsets into an *edge vector* of `m`
//! destination node ids. The neighbors of node `i` occupy
//! `edge_vector[node_vector[i] .. node_vector[i + 1]]`. An optional third
//! array of the same length as the edge vector carries edge weights for
//! SSSP. All three arrays are `u32`, matching what is copied verbatim into
//! simulated device memory.

use crate::error::GraphError;

/// Node identifier. The device works in 32-bit ids, so the host does too.
pub type NodeId = u32;

/// "Infinite" level/distance marker (matches the device encoding).
pub const INF: u32 = u32::MAX;

/// An immutable directed graph in compressed sparse row form.
///
/// Invariants (enforced at construction):
/// * `row_offsets.len() == node_count + 1`
/// * `row_offsets\[0\] == 0`, `row_offsets[n] == edge_count`, non-decreasing
/// * every entry of `col_indices` is `< node_count`
/// * `weights`, if present, has exactly `edge_count` entries
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    weights: Option<Vec<u32>>,
}

impl CsrGraph {
    /// Builds a CSR graph from raw arrays, validating every invariant.
    pub fn from_raw(
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        weights: Option<Vec<u32>>,
    ) -> Result<Self, GraphError> {
        if row_offsets.is_empty() {
            return Err(GraphError::MalformedOffsets {
                detail: "row offsets must contain at least one entry".into(),
            });
        }
        if row_offsets[0] != 0 {
            return Err(GraphError::MalformedOffsets {
                detail: format!("first offset is {}, expected 0", row_offsets[0]),
            });
        }
        if *row_offsets.last().unwrap() as usize != col_indices.len() {
            return Err(GraphError::MalformedOffsets {
                detail: format!(
                    "last offset {} != edge count {}",
                    row_offsets.last().unwrap(),
                    col_indices.len()
                ),
            });
        }
        if let Some(w) = row_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::MalformedOffsets {
                detail: format!("offsets decrease at index {w}"),
            });
        }
        let n = (row_offsets.len() - 1) as u64;
        if let Some(&bad) = col_indices.iter().find(|&&c| (c as u64) >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad as u64,
                node_count: n,
            });
        }
        if let Some(ref w) = weights {
            if w.len() != col_indices.len() {
                return Err(GraphError::WeightLengthMismatch {
                    edges: col_indices.len(),
                    weights: w.len(),
                });
            }
        }
        Ok(CsrGraph {
            row_offsets,
            col_indices,
            weights,
        })
    }

    /// An empty graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            row_offsets: vec![0; n + 1],
            col_indices: Vec::new(),
            weights: None,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.col_indices.len()
    }

    /// Outdegree of node `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.row_offsets[v + 1] - self.row_offsets[v]) as usize
    }

    /// Iterator over the out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let v = v as usize;
        let (lo, hi) = (
            self.row_offsets[v] as usize,
            self.row_offsets[v + 1] as usize,
        );
        self.col_indices[lo..hi].iter().copied()
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`. Weight is 1 when the
    /// graph is unweighted.
    pub fn weighted_neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let v = v as usize;
        let (lo, hi) = (
            self.row_offsets[v] as usize,
            self.row_offsets[v + 1] as usize,
        );
        (lo..hi).map(move |e| (self.col_indices[e], self.edge_weight_at(e)))
    }

    /// Weight of the edge stored at position `e` of the edge vector.
    #[inline]
    pub fn edge_weight_at(&self, e: usize) -> u32 {
        match &self.weights {
            Some(w) => w[e],
            None => 1,
        }
    }

    /// Iterator over all edges as `(src, dst, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        (0..self.node_count() as u32).flat_map(move |v| {
            let (lo, hi) = (
                self.row_offsets[v as usize] as usize,
                self.row_offsets[v as usize + 1] as usize,
            );
            (lo..hi).map(move |e| (v, self.col_indices[e], self.edge_weight_at(e)))
        })
    }

    /// Raw row-offset array (length `n + 1`). This is what gets copied to
    /// the simulated device.
    #[inline]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// Raw column-index (edge) array (length `m`).
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Raw weight array, if the graph is weighted.
    #[inline]
    pub fn weight_slice(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Whether edge weights are attached.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Returns a copy of this graph with the given weights attached.
    pub fn with_weights(mut self, weights: Vec<u32>) -> Result<Self, GraphError> {
        if weights.len() != self.col_indices.len() {
            return Err(GraphError::WeightLengthMismatch {
                edges: self.col_indices.len(),
                weights: weights.len(),
            });
        }
        self.weights = Some(weights);
        Ok(self)
    }

    /// Returns a copy of this graph with uniformly random integer weights in
    /// `1..=max_weight`, generated from `rng`.
    pub fn with_random_weights<R: rand::Rng>(self, rng: &mut R, max_weight: u32) -> Self {
        let m = self.col_indices.len();
        let weights = (0..m)
            .map(|_| rng.gen_range(1..=max_weight.max(1)))
            .collect();
        // Length matches edge count by construction.
        self.with_weights(weights)
            .expect("weight length matches by construction")
    }

    /// The transpose (edge-reversed) graph. Weights follow their edges.
    pub fn reverse(&self) -> CsrGraph {
        let n = self.node_count();
        let mut in_deg = vec![0u32; n];
        for &dst in &self.col_indices {
            in_deg[dst as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + in_deg[v];
        }
        let m = self.col_indices.len();
        let mut cols = vec![0u32; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0u32; m]);
        let mut cursor = offsets[..n].to_vec();
        for (src, dst, w) in self.edges() {
            let slot = cursor[dst as usize] as usize;
            cursor[dst as usize] += 1;
            cols[slot] = src;
            if let Some(ws) = weights.as_mut() {
                ws[slot] = w;
            }
        }
        CsrGraph {
            row_offsets: offsets,
            col_indices: cols,
            weights,
        }
    }

    /// Whether every edge `(u, v)` has a reverse edge `(v, u)`.
    pub fn is_symmetric(&self) -> bool {
        let rev = self.reverse();
        let mut fwd: Vec<(u32, u32)> = self.edges().map(|(s, d, _)| (s, d)).collect();
        let mut bwd: Vec<(u32, u32)> = rev.edges().map(|(s, d, _)| (s, d)).collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        fwd == bwd
    }

    /// Builds a new CSR graph from this one with a batch of edge deltas
    /// folded in: every copy of each `(src, dst)` pair in `removed` is
    /// dropped, then the `added` triples are appended. This is the
    /// compaction/snapshot primitive behind the `agg-dynamic` delta layer.
    ///
    /// Edge order is deterministic: each row keeps its surviving base
    /// edges in base order, followed by that row's added edges in the
    /// order given. Weights are kept iff the base graph is weighted (the
    /// weight component of `added` is ignored on unweighted graphs).
    /// Removing a pair that does not exist is a no-op; endpoints out of
    /// range are rejected.
    pub fn rebuilt_with(
        &self,
        added: &[(NodeId, NodeId, u32)],
        removed: &[(NodeId, NodeId)],
    ) -> Result<CsrGraph, GraphError> {
        let n = self.node_count() as u64;
        for &(src, dst, _) in added {
            for node in [src, dst] {
                if node as u64 >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: node as u64,
                        node_count: n,
                    });
                }
            }
        }
        let dead: std::collections::HashSet<(u32, u32)> = removed.iter().copied().collect();

        let n = self.node_count();
        let mut degree = vec![0u32; n];
        for (src, dst, _) in self.edges() {
            if !dead.contains(&(src, dst)) {
                degree[src as usize] += 1;
            }
        }
        for &(src, _, _) in added {
            degree[src as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let m = *offsets.last().unwrap() as usize;
        let mut cols = vec![0u32; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0u32; m]);
        let mut cursor = offsets[..n].to_vec();
        let mut place = |src: u32, dst: u32, w: u32, weights: &mut Option<Vec<u32>>| {
            let slot = cursor[src as usize] as usize;
            cursor[src as usize] += 1;
            cols[slot] = dst;
            if let Some(ws) = weights.as_mut() {
                ws[slot] = w;
            }
        };
        // Each row's cursor sees its base survivors before any of its
        // additions, giving the documented per-row order.
        for (src, dst, w) in self.edges() {
            if !dead.contains(&(src, dst)) {
                place(src, dst, w, &mut weights);
            }
        }
        for &(src, dst, w) in added {
            place(src, dst, w, &mut weights);
        }
        CsrGraph::from_raw(offsets, cols, weights)
    }

    /// Total bytes of the device-resident representation (node vector +
    /// edge vector + optional weights). Used for transfer-time modeling.
    pub fn device_bytes(&self) -> usize {
        4 * (self.row_offsets.len()
            + self.col_indices.len()
            + self.weights.as_ref().map_or(0, |w| w.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example of the paper's Figure 7: neighbors of node 2 are the edge
    /// vector entries in `[offsets\[2\], offsets\[3\])`.
    fn figure7_like() -> CsrGraph {
        // 4 nodes; node 0 -> {1, 2}, node 1 -> {2}, node 2 -> {0, 3}, node 3 -> {}
        CsrGraph::from_raw(vec![0, 2, 3, 5, 5], vec![1, 2, 2, 0, 3], None).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = figure7_like();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn edges_iterator_enumerates_all_edges_in_csr_order() {
        let g = figure7_like();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(
            e,
            vec![(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)]
        );
    }

    #[test]
    fn unweighted_neighbors_have_weight_one() {
        let g = figure7_like();
        assert!(g.weighted_neighbors(0).all(|(_, w)| w == 1));
    }

    #[test]
    fn with_weights_rejects_wrong_length() {
        let g = figure7_like();
        assert!(matches!(
            g.with_weights(vec![1, 2]),
            Err(GraphError::WeightLengthMismatch {
                edges: 5,
                weights: 2
            })
        ));
    }

    #[test]
    fn with_random_weights_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = figure7_like().with_random_weights(&mut rng, 10);
        assert!(g
            .weight_slice()
            .unwrap()
            .iter()
            .all(|&w| (1..=10).contains(&w)));
    }

    #[test]
    fn reverse_transposes_edges_and_weights() {
        let g = figure7_like()
            .with_weights(vec![10, 20, 30, 40, 50])
            .unwrap();
        let r = g.reverse();
        let mut re: Vec<_> = r.edges().collect();
        re.sort_unstable();
        assert_eq!(
            re,
            vec![(0, 2, 40), (1, 0, 10), (2, 0, 20), (2, 1, 30), (3, 2, 50)]
        );
    }

    #[test]
    fn double_reverse_is_identity_on_edge_sets() {
        let g = figure7_like();
        let rr = g.reverse().reverse();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = rr.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_detection() {
        let sym = CsrGraph::from_raw(vec![0, 1, 2], vec![1, 0], None).unwrap();
        assert!(sym.is_symmetric());
        let asym = CsrGraph::from_raw(vec![0, 1, 1], vec![1], None).unwrap();
        assert!(!asym.is_symmetric());
    }

    #[test]
    fn from_raw_rejects_bad_offsets() {
        assert!(matches!(
            CsrGraph::from_raw(vec![], vec![], None),
            Err(GraphError::MalformedOffsets { .. })
        ));
        assert!(matches!(
            CsrGraph::from_raw(vec![1, 1], vec![], None),
            Err(GraphError::MalformedOffsets { .. })
        ));
        assert!(matches!(
            CsrGraph::from_raw(vec![0, 2, 1], vec![0], None),
            Err(GraphError::MalformedOffsets { .. })
        ));
        assert!(matches!(
            CsrGraph::from_raw(vec![0, 5], vec![0], None),
            Err(GraphError::MalformedOffsets { .. })
        ));
    }

    #[test]
    fn from_raw_rejects_out_of_range_neighbor() {
        assert!(matches!(
            CsrGraph::from_raw(vec![0, 1], vec![3], None),
            Err(GraphError::NodeOutOfRange {
                node: 3,
                node_count: 1
            })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(4), 0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn rebuilt_with_removes_all_copies_and_appends_in_order() {
        // Node 0 has a parallel pair 0->2; removing (0, 2) drops both.
        let g = CsrGraph::from_raw(vec![0, 3, 4, 4], vec![1, 2, 2, 0], None).unwrap();
        let out = g.rebuilt_with(&[(2, 1, 9), (0, 2, 9)], &[(0, 2)]).unwrap();
        let e: Vec<_> = out.edges().collect();
        // Row 0: survivor (0,1) then the re-added (0,2); row 2 gains (2,1).
        assert_eq!(e, vec![(0, 1, 1), (0, 2, 1), (1, 0, 1), (2, 1, 1)]);
        assert!(!out.is_weighted());
    }

    #[test]
    fn rebuilt_with_keeps_weights_on_weighted_graphs() {
        let g = figure7_like()
            .with_weights(vec![10, 20, 30, 40, 50])
            .unwrap();
        let out = g.rebuilt_with(&[(3, 0, 7)], &[(1, 2)]).unwrap();
        let e: Vec<_> = out.edges().collect();
        assert_eq!(e, vec![(0, 1, 10), (0, 2, 20), (2, 0, 40), (2, 3, 50), (3, 0, 7)]);
    }

    #[test]
    fn rebuilt_with_rejects_out_of_range_endpoints_and_ignores_missing_removals() {
        let g = figure7_like();
        assert!(matches!(
            g.rebuilt_with(&[(0, 9, 1)], &[]),
            Err(GraphError::NodeOutOfRange { node: 9, .. })
        ));
        // Removing a pair that isn't there leaves the graph unchanged.
        let same = g.rebuilt_with(&[], &[(3, 0)]).unwrap();
        assert_eq!(same, g);
    }

    #[test]
    fn device_bytes_counts_all_arrays() {
        let g = figure7_like();
        assert_eq!(g.device_bytes(), 4 * (5 + 5));
        let g = g.with_weights(vec![1; 5]).unwrap();
        assert_eq!(g.device_bytes(), 4 * (5 + 5 + 5));
    }
}
