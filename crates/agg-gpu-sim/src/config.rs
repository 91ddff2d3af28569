//! Device configuration: the architectural and timing parameters of the
//! simulated GPU. All timing behaviour of the simulator flows from the
//! numbers in this struct, so experiments can sweep them (e.g. the
//! launch-overhead ablation, experiment X2 in DESIGN.md).

/// What the execution engine computes per launch, beyond the kernel's
/// memory effects (which every fidelity produces bit-identically).
///
/// | fidelity | values | `BlockCost`/timing | race log |
/// |---|---|---|---|
/// | [`SimFidelity::Timed`] | ✓ | ✓ | — |
/// | [`SimFidelity::TimedWithRaces`] | ✓ | ✓ | ✓ |
/// | [`SimFidelity::Functional`] | ✓ | zeroed | — |
///
/// Under `Functional`, every launch report carries `time_ns == 0.0`,
/// default statistics, and `races: None`; the device clock does not
/// advance on launches (transfers still charge PCIe time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimFidelity {
    /// Full timing model: divergence, coalescing, atomic serialization,
    /// bank conflicts, occupancy-based latency hiding (the default).
    #[default]
    Timed,
    /// [`SimFidelity::Timed`] plus per-word access logging and race
    /// classification attached to each [`crate::LaunchReport`]. Costly
    /// (host-side); timing results are unaffected.
    TimedWithRaces,
    /// Fast-functional: memory semantics only (masks, traps, bounds
    /// checks, deterministic atomic order, barrier collectives), with
    /// all cost, coalescing, occupancy, and race bookkeeping skipped.
    Functional,
}

/// Which execution engine runs kernel launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The flat bytecode engine (compiled once per kernel, memoized) —
    /// the default and the only engine available in production builds.
    #[default]
    Bytecode,
    /// The original tree-walking interpreter, kept as a differential
    /// oracle. Only available under `cfg(test)` or the `interp-oracle`
    /// feature; selecting it otherwise fails [`DeviceConfig::validate`].
    Interpreter,
}

/// Architectural + timing description of a simulated CUDA device.
///
/// The default constructor [`DeviceConfig::tesla_c2070`] models the Fermi
/// card the paper used ("an Nvidia Tesla C2070 GPU, which contains 14
/// 32-core SMs", 1.15 GHz, 144 GB/s).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM (32 or 48 on Fermi).
    pub cores_per_sm: u32,
    /// SIMT width; threads per warp.
    pub warp_size: u32,
    /// Maximum threads per block accepted by a launch.
    pub max_threads_per_block: u32,
    /// Maximum concurrently resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum concurrently resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM (Fermi: 48).
    pub max_warps_per_sm: u32,
    /// Shared memory bytes per SM.
    pub shared_mem_per_sm: u32,
    /// Core clock in GHz; converts cycles to nanoseconds.
    pub clock_ghz: f64,
    /// Global memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Global memory transaction size in bytes (coalescing granule).
    pub transaction_bytes: u32,
    /// Issue-pipeline cycles charged per memory transaction.
    pub mem_issue_cycles: u64,
    /// Raw DRAM latency in cycles; hidden by resident warps.
    pub mem_latency_cycles: u64,
    /// Cycles for the first atomic to an address.
    pub atomic_issue_cycles: u64,
    /// Additional serialized cycles per extra conflicting atomic lane.
    pub atomic_conflict_cycles: u64,
    /// Replay cost per extra shared-memory bank conflict.
    pub shared_conflict_cycles: u64,
    /// Cycles per `__syncthreads()`.
    pub sync_cycles: u64,
    /// Host-side fixed cost per kernel launch, in microseconds.
    pub launch_overhead_us: f64,
    /// PCIe transfer bandwidth (GB/s) for host<->device copies.
    pub pcie_gbps: f64,
    /// Fixed latency per host<->device copy, in microseconds.
    pub pcie_latency_us: f64,
    /// What launches compute: full timing, timing + race detection, or
    /// fast-functional (see [`SimFidelity`]).
    pub fidelity: SimFidelity,
    /// Which execution engine runs launches (see [`ExecEngine`]).
    pub engine: ExecEngine,
}

impl DeviceConfig {
    /// The paper's evaluation device: Tesla C2070 (Fermi GF100).
    pub fn tesla_c2070() -> DeviceConfig {
        DeviceConfig {
            name: "Tesla C2070 (simulated)".to_string(),
            num_sms: 14,
            cores_per_sm: 32,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 8,
            max_threads_per_sm: 1536,
            max_warps_per_sm: 48,
            shared_mem_per_sm: 48 * 1024,
            clock_ghz: 1.15,
            mem_bandwidth_gbps: 144.0,
            transaction_bytes: 128,
            mem_issue_cycles: 4,
            mem_latency_cycles: 400,
            atomic_issue_cycles: 12,
            atomic_conflict_cycles: 24,
            shared_conflict_cycles: 1,
            sync_cycles: 16,
            launch_overhead_us: 7.0,
            pcie_gbps: 6.0,
            pcie_latency_us: 10.0,
            fidelity: SimFidelity::default(),
            engine: ExecEngine::default(),
        }
    }

    /// This configuration running at the given fidelity.
    pub fn with_fidelity(mut self, fidelity: SimFidelity) -> DeviceConfig {
        self.fidelity = fidelity;
        self
    }

    /// This configuration running on the given execution engine.
    pub fn with_engine(mut self, engine: ExecEngine) -> DeviceConfig {
        self.engine = engine;
        self
    }

    /// A deliberately tiny device (2 SMs) for tests that need to observe
    /// SM-level load imbalance without large launches.
    pub fn tiny_test_device() -> DeviceConfig {
        DeviceConfig {
            name: "tiny-test".to_string(),
            num_sms: 2,
            max_threads_per_block: 256,
            max_blocks_per_sm: 2,
            max_threads_per_sm: 256,
            max_warps_per_sm: 8,
            ..DeviceConfig::tesla_c2070()
        }
    }

    /// Cycles → nanoseconds under this clock.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.clock_ghz
    }

    /// Warps needed for `threads` threads.
    pub fn warps_for(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_size)
    }

    /// Validates internal consistency (`Device::try_new` rejects a config
    /// that fails it).
    pub fn validate(&self) -> Result<(), String> {
        if self.warp_size == 0 || !self.warp_size.is_power_of_two() || self.warp_size > 32 {
            return Err(format!(
                "warp_size {} must be a power of two <= 32",
                self.warp_size
            ));
        }
        if self.num_sms == 0 {
            return Err("num_sms must be positive".into());
        }
        if self.clock_ghz <= 0.0 || self.mem_bandwidth_gbps <= 0.0 || self.pcie_gbps <= 0.0 {
            return Err("clock and bandwidths must be positive".into());
        }
        if self.transaction_bytes == 0 || !self.transaction_bytes.is_power_of_two() {
            return Err(format!(
                "transaction_bytes {} must be a power of two",
                self.transaction_bytes
            ));
        }
        if self.max_threads_per_block == 0 || self.max_threads_per_sm < self.max_threads_per_block {
            return Err("thread limits inconsistent".into());
        }
        #[cfg(not(any(test, feature = "interp-oracle")))]
        if matches!(self.engine, ExecEngine::Interpreter) {
            return Err(
                "ExecEngine::Interpreter requires the `interp-oracle` feature of agg-gpu-sim"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2070_matches_paper_description() {
        let c = DeviceConfig::tesla_c2070();
        assert_eq!(c.num_sms, 14);
        assert_eq!(c.cores_per_sm, 32);
        assert_eq!(c.warp_size, 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cycle_conversion() {
        let c = DeviceConfig::tesla_c2070();
        // 1.15 GHz: 1150 cycles = 1000 ns
        assert!((c.cycles_to_ns(1150.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn warps_for_rounds_up() {
        let c = DeviceConfig::tesla_c2070();
        assert_eq!(c.warps_for(1), 1);
        assert_eq!(c.warps_for(32), 1);
        assert_eq!(c.warps_for(33), 2);
        assert_eq!(c.warps_for(0), 0);
    }

    #[test]
    fn fidelity_and_engine_default_to_timed_bytecode() {
        let c = DeviceConfig::tesla_c2070();
        assert_eq!(c.fidelity, SimFidelity::Timed);
        assert_eq!(c.engine, ExecEngine::Bytecode);
        let c = c
            .with_fidelity(SimFidelity::Functional)
            .with_engine(ExecEngine::Interpreter);
        assert_eq!(c.fidelity, SimFidelity::Functional);
        assert_eq!(c.engine, ExecEngine::Interpreter);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut c = DeviceConfig::tesla_c2070();
        c.warp_size = 20;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::tesla_c2070();
        c.num_sms = 0;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::tesla_c2070();
        c.transaction_bytes = 100;
        assert!(c.validate().is_err());
        let mut c = DeviceConfig::tesla_c2070();
        c.max_threads_per_sm = 16;
        assert!(c.validate().is_err());
    }
}
