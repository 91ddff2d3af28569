//! Cost counters accumulated during warp execution.

use std::ops::AddAssign;

/// Raw event counters for a unit of execution (warp, block, or kernel —
/// they add associatively).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostStats {
    /// Warp-instructions issued (each costs one pipeline slot regardless of
    /// how many lanes are active — the SIMT underutilization penalty).
    pub instructions: u64,
    /// Sum over issued instructions of the number of active lanes; divided
    /// by `instructions * warp_size` this gives SIMT efficiency.
    pub active_lane_instructions: u64,
    /// Global load instructions executed (warp-level).
    pub loads: u64,
    /// Global store instructions executed (warp-level).
    pub stores: u64,
    /// Memory transactions after coalescing.
    pub mem_transactions: u64,
    /// Bytes moved to/from DRAM (transactions × segment size).
    pub mem_bytes: u64,
    /// Atomic operations executed (lane-level).
    pub atomics: u64,
    /// Lane-level atomic operations that had to wait behind a conflicting
    /// lane in the same warp (serialization events).
    pub atomic_conflicts: u64,
    /// Warp branches whose lanes disagreed (both paths executed).
    pub divergent_branches: u64,
    /// Shared-memory access instructions (warp-level).
    pub shared_accesses: u64,
    /// Shared-memory replays due to bank conflicts.
    pub shared_replays: u64,
    /// `__syncthreads()` executions (warp-level).
    pub syncs: u64,
    /// Block-wide barrier intrinsics executed (block-level).
    pub barriers: u64,
}

impl AddAssign for CostStats {
    fn add_assign(&mut self, o: CostStats) {
        self.instructions += o.instructions;
        self.active_lane_instructions += o.active_lane_instructions;
        self.loads += o.loads;
        self.stores += o.stores;
        self.mem_transactions += o.mem_transactions;
        self.mem_bytes += o.mem_bytes;
        self.atomics += o.atomics;
        self.atomic_conflicts += o.atomic_conflicts;
        self.divergent_branches += o.divergent_branches;
        self.shared_accesses += o.shared_accesses;
        self.shared_replays += o.shared_replays;
        self.syncs += o.syncs;
        self.barriers += o.barriers;
    }
}

impl CostStats {
    /// Fraction of issued lane slots that carried an active lane
    /// (1.0 = divergence-free, fully occupied warps).
    pub fn simt_efficiency(&self, warp_size: u32) -> f64 {
        if self.instructions == 0 {
            return 1.0;
        }
        self.active_lane_instructions as f64 / (self.instructions * warp_size as u64) as f64
    }
}

/// Per-block aggregate the scheduler consumes.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct BlockCost {
    /// Issue-pipeline cycles: one per warp-instruction, plus transaction,
    /// atomic, conflict, and sync surcharges.
    pub issue_cycles: u64,
    /// Raw memory-latency cycles (before occupancy-based hiding).
    pub stall_cycles: u64,
    /// Event counters.
    pub stats: CostStats,
}

impl AddAssign for BlockCost {
    fn add_assign(&mut self, o: BlockCost) {
        self.issue_cycles += o.issue_cycles;
        self.stall_cycles += o.stall_cycles;
        self.stats += o.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_add_componentwise() {
        let mut a = CostStats {
            instructions: 5,
            mem_bytes: 100,
            ..Default::default()
        };
        let b = CostStats {
            instructions: 3,
            atomics: 2,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.instructions, 8);
        assert_eq!(a.mem_bytes, 100);
        assert_eq!(a.atomics, 2);
    }

    #[test]
    fn simt_efficiency_bounds() {
        let full = CostStats {
            instructions: 10,
            active_lane_instructions: 320,
            ..Default::default()
        };
        assert!((full.simt_efficiency(32) - 1.0).abs() < 1e-12);
        let half = CostStats {
            instructions: 10,
            active_lane_instructions: 160,
            ..Default::default()
        };
        assert!((half.simt_efficiency(32) - 0.5).abs() < 1e-12);
        let empty = CostStats::default();
        assert_eq!(empty.simt_efficiency(32), 1.0);
    }

    #[test]
    fn block_cost_adds() {
        let mut a = BlockCost {
            issue_cycles: 10,
            stall_cycles: 100,
            ..Default::default()
        };
        a += BlockCost {
            issue_cycles: 5,
            stall_cycles: 50,
            ..Default::default()
        };
        assert_eq!(a.issue_cycles, 15);
        assert_eq!(a.stall_cycles, 150);
    }
}
