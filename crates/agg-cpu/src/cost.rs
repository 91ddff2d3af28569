//! The CPU cost model: work counters → modeled nanoseconds.
//!
//! Calibration targets a ~2010 Core i7 (Nehalem/Westmere class) running
//! `-O3` compiled graph code:
//!
//! * simple ALU/branch work retires at a few ops per cycle → ~0.5 ns per
//!   counted operation;
//! * a neighbor gather on a graph that does not fit in L2 mostly misses to
//!   L3/DRAM → ~8 ns average;
//! * queue pushes/pops are pointer bumps → ~2 ns;
//! * binary-heap operations cost a base plus `log2(size)` swap levels.
//!
//! These constants put serial BFS at ~10-20 M nodes/s on the paper's
//! datasets — the throughput class the paper's Tables 2/3 imply (its best
//! GPU BFS reaches hundreds of M nodes/s at speedups of ~10x).

/// Work counters accumulated by an instrumented baseline run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CpuCounters {
    /// Nodes processed (dequeued / settled).
    pub nodes: u64,
    /// Edges scanned (neighbor gathers).
    pub edges: u64,
    /// FIFO queue pushes + pops.
    pub queue_ops: u64,
    /// Heap pushes + pops.
    pub heap_ops: u64,
    /// Sum of `log2(heap_size)` over heap operations (sift depth).
    pub heap_log_sum: f64,
    /// Algorithm iterations (outer loop count, for Bellman-Ford).
    pub iterations: u64,
}

/// Converts counters to modeled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCostModel {
    /// Fixed per-node bookkeeping cost (ns).
    pub per_node_ns: f64,
    /// Average cost of scanning one edge, including the irregular gather
    /// (ns).
    pub per_edge_ns: f64,
    /// Cost per FIFO queue operation (ns).
    pub queue_op_ns: f64,
    /// Base cost per heap operation (ns).
    pub heap_base_ns: f64,
    /// Cost per sift level (multiplied by `log2(heap size)`) (ns).
    pub heap_level_ns: f64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        CpuCostModel::core_i7_2010()
    }
}

impl CpuCostModel {
    /// Calibration described in the module docs.
    pub fn core_i7_2010() -> CpuCostModel {
        CpuCostModel {
            per_node_ns: 12.0,
            per_edge_ns: 8.0,
            queue_op_ns: 2.0,
            heap_base_ns: 14.0,
            heap_level_ns: 2.5,
        }
    }

    /// Modeled nanoseconds for a counted run.
    pub fn modeled_ns(&self, c: &CpuCounters) -> f64 {
        c.nodes as f64 * self.per_node_ns
            + c.edges as f64 * self.per_edge_ns
            + c.queue_ops as f64 * self.queue_op_ns
            + c.heap_ops as f64 * self.heap_base_ns
            + c.heap_log_sum * self.heap_level_ns
    }
}

/// The result of an instrumented baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuRun {
    /// Per-node output (levels or distances).
    pub result: Vec<u32>,
    /// Work counters.
    pub counters: CpuCounters,
    /// Modeled time in nanoseconds.
    pub time_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_time_is_linear_in_counters() {
        let m = CpuCostModel::core_i7_2010();
        let a = CpuCounters {
            nodes: 10,
            edges: 100,
            ..Default::default()
        };
        let b = CpuCounters {
            nodes: 20,
            edges: 200,
            ..Default::default()
        };
        assert!((m.modeled_ns(&b) - 2.0 * m.modeled_ns(&a)).abs() < 1e-9);
    }

    #[test]
    fn bfs_throughput_lands_in_calibration_band() {
        // 400k-node, 3.4M-edge Amazon-like BFS visits every node/edge once.
        let m = CpuCostModel::core_i7_2010();
        let c = CpuCounters {
            nodes: 400_000,
            edges: 3_400_000,
            queue_ops: 800_000,
            ..Default::default()
        };
        let secs = m.modeled_ns(&c) / 1e9;
        let nodes_per_sec = 400_000.0 / secs;
        assert!(
            (5.0e6..4.0e7).contains(&nodes_per_sec),
            "serial BFS modeled at {:.1} M nodes/s — outside the 2010-i7 band",
            nodes_per_sec / 1e6
        );
    }

    #[test]
    fn heap_ops_cost_more_than_queue_ops() {
        let m = CpuCostModel::core_i7_2010();
        let q = CpuCounters {
            queue_ops: 1000,
            ..Default::default()
        };
        let h = CpuCounters {
            heap_ops: 1000,
            heap_log_sum: 10_000.0,
            ..Default::default()
        };
        assert!(m.modeled_ns(&h) > 5.0 * m.modeled_ns(&q));
    }
}
