//! SM occupancy: how many blocks/warps are concurrently resident, which
//! determines memory-latency hiding. This is the simulator's counterpart
//! of the CUDA Occupancy Calculator the paper used to pick kernel
//! configurations (Section VII.A).

use crate::config::DeviceConfig;

/// Residency figures for one kernel configuration on one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Concurrently resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Concurrently resident warps per SM.
    pub warps_per_sm: u32,
}

impl Occupancy {
    /// Computes residency limits for a block of `threads_per_block` threads
    /// using `shared_bytes` of shared memory.
    pub fn compute(cfg: &DeviceConfig, threads_per_block: u32, shared_bytes: u32) -> Occupancy {
        let tpb = threads_per_block.max(1);
        let by_threads = cfg.max_threads_per_sm / tpb;
        let by_shared = cfg
            .shared_mem_per_sm
            .checked_div(shared_bytes)
            .unwrap_or(cfg.max_blocks_per_sm);
        let blocks = cfg.max_blocks_per_sm.min(by_threads).min(by_shared).max(1);
        let warps_per_block = cfg.warps_for(tpb);
        let warps = (blocks * warps_per_block).min(cfg.max_warps_per_sm).max(1);
        Occupancy {
            blocks_per_sm: blocks,
            warps_per_sm: warps,
        }
    }

    /// Occupancy as a fraction of the device's maximum resident warps.
    pub fn fraction(&self, cfg: &DeviceConfig) -> f64 {
        self.warps_per_sm as f64 / cfg.max_warps_per_sm as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_blocks_limited_by_block_slots() {
        let cfg = DeviceConfig::tesla_c2070();
        let o = Occupancy::compute(&cfg, 32, 0);
        assert_eq!(o.blocks_per_sm, 8); // 8-block cap, not threads
        assert_eq!(o.warps_per_sm, 8);
    }

    #[test]
    fn large_blocks_limited_by_threads() {
        let cfg = DeviceConfig::tesla_c2070();
        let o = Occupancy::compute(&cfg, 512, 0);
        assert_eq!(o.blocks_per_sm, 3); // 1536 / 512
        assert_eq!(o.warps_per_sm, 48);
    }

    #[test]
    fn shared_memory_limits_blocks() {
        let cfg = DeviceConfig::tesla_c2070();
        let o = Occupancy::compute(&cfg, 64, 24 * 1024);
        assert_eq!(o.blocks_per_sm, 2); // 48K / 24K
    }

    #[test]
    fn paper_config_192_threads() {
        // The paper's best thread-mapping config: 192 threads/block.
        let cfg = DeviceConfig::tesla_c2070();
        let o = Occupancy::compute(&cfg, 192, 0);
        assert_eq!(o.blocks_per_sm, 8);
        assert_eq!(o.warps_per_sm, 48); // 8 blocks * 6 warps = full
        assert!((o.fraction(&cfg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn never_zero() {
        let cfg = DeviceConfig::tesla_c2070();
        let o = Occupancy::compute(&cfg, 2048, 0); // oversized block
        assert!(o.blocks_per_sm >= 1 && o.warps_per_sm >= 1);
        let o = Occupancy::compute(&cfg, 0, 0);
        assert!(o.warps_per_sm >= 1);
    }
}
