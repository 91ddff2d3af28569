//! Adaptive-runtime configuration: the T1/T2/T3 thresholds of the paper's
//! Figure 11 and the inspector's sampling rate (Section VI.E).

use agg_gpu_sim::DeviceConfig;

/// Which average outdegree the decision maker consumes (Section VI.E:
/// the paper uses the whole-graph value to keep inspector overhead low;
/// the working-set value is the precise-but-expensive alternative this
/// implementation can ablate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeMode {
    /// One value computed at upload time; zero per-iteration cost.
    WholeGraph,
    /// Degree census over the current working set, at the sampling
    /// cadence (an extra kernel + 4-byte read per sample).
    WorkingSet,
}

/// Thresholds and tuning knobs of the decision maker and graph inspector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// T1: average outdegree below which thread mapping beats block
    /// mapping for large working sets. The paper fixes it at the warp
    /// size: a block cannot usefully be smaller than one warp.
    pub t1_avg_outdegree: f64,
    /// T2: working-set size below which block mapping is always chosen
    /// (too few elements to occupy the SMs with 192-thread blocks). The
    /// paper derives `192 × num_SMs = 2688` for the C2070.
    pub t2_ws_size: u32,
    /// T3: working-set size above which a bitmap beats a queue, expressed
    /// as a fraction of the node count (the x-axis of Figure 13).
    pub t3_fraction: f64,
    /// Inspector sampling period: the ws-size census kernel runs every
    /// this many iterations while in bitmap mode (1 = every iteration).
    pub sampling_period: u32,
    /// Threads per block for thread-mapping kernels (the paper found 192
    /// best via the occupancy calculator).
    pub thread_block_threads: u32,
    /// Use the scan-based queue generation (Merrill-style ablation)
    /// instead of atomic index allocation.
    pub scan_queue_gen: bool,
    /// Degree statistic fed to the decision maker.
    pub degree_mode: DegreeMode,
}

impl AdaptiveConfig {
    /// Paper-tuned thresholds for a given device: T1 = warp size,
    /// T2 = `thread_block_threads × num_sms`, T3 = 6% of nodes (the middle
    /// of the stable region our Figure 13 sweep finds; see EXPERIMENTS.md).
    pub fn for_device(cfg: &DeviceConfig) -> AdaptiveConfig {
        AdaptiveConfig {
            t1_avg_outdegree: cfg.warp_size as f64,
            t2_ws_size: 192 * cfg.num_sms,
            t3_fraction: 0.06,
            sampling_period: 4,
            thread_block_threads: 192,
            scan_queue_gen: false,
            degree_mode: DegreeMode::WholeGraph,
        }
    }

    /// T3 in absolute nodes for a graph of `n` nodes.
    pub fn t3_ws_size(&self, n: u32) -> u32 {
        ((n as f64 * self.t3_fraction).round() as u64).min(u32::MAX as u64) as u32
    }

    /// Threads per block for block-mapping kernels: the multiple of 32
    /// closest to the graph's average outdegree, clamped to one warp
    /// minimum (the paper's Section VII.A rule).
    pub fn block_mapping_threads(&self, avg_outdegree: f64, max_threads: u32) -> u32 {
        let rounded = ((avg_outdegree / 32.0).round() as u32).max(1) * 32;
        rounded.clamp(32, max_threads)
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::for_device(&DeviceConfig::tesla_c2070())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_for_c2070() {
        let c = AdaptiveConfig::for_device(&DeviceConfig::tesla_c2070());
        assert_eq!(c.t1_avg_outdegree, 32.0);
        assert_eq!(c.t2_ws_size, 2688); // 192 * 14, the paper's number
        assert_eq!(c.thread_block_threads, 192);
    }

    #[test]
    fn t3_scales_with_node_count() {
        let c = AdaptiveConfig::default();
        assert_eq!(c.t3_ws_size(100_000), 6_000);
        assert_eq!(c.t3_ws_size(0), 0);
    }

    #[test]
    fn block_mapping_threads_rounds_to_warp_multiples() {
        let c = AdaptiveConfig::default();
        assert_eq!(c.block_mapping_threads(2.5, 1024), 32); // road-like
        assert_eq!(c.block_mapping_threads(8.5, 1024), 32); // amazon-like
        assert_eq!(c.block_mapping_threads(73.9, 1024), 64); // citeseer-like
        assert_eq!(c.block_mapping_threads(100.0, 1024), 96);
        assert_eq!(c.block_mapping_threads(5000.0, 1024), 1024); // clamped
    }
}
