//! The device facade: allocation, transfers, kernel launches, and the
//! simulation clock.
//!
//! Every operation that would cost time on real hardware advances the
//! device's modeled clock: kernel launches (per the timing model),
//! host<->device copies (PCIe model), and device-side fills. Host-side
//! *inspection* that the algorithm under study would not perform can use
//! the `debug_*` accessors, which are free.

use crate::config::{DeviceConfig, SimFidelity};
use crate::error::SimError;
use crate::exec::grid::{run_grid, Grid, LaunchArgs};
use crate::ir::builder::Kernel;
use crate::mem::global::{DevicePtr, GlobalMemory};
use crate::mem::race::RaceSummary;
use crate::mem::transfer::transfer_ns;
use crate::timing::report::{KernelStats, LaunchReport, ProfileReport};

/// A simulated GPU: memory + execution engine + clock.
pub struct Device {
    cfg: DeviceConfig,
    mem: GlobalMemory,
    kernel_ns: f64,
    transfer_ns_total: f64,
    launches: u64,
    cumulative: KernelStats,
    profile: ProfileReport,
    races: RaceSummary,
}

impl Device {
    /// Creates a device, validating the configuration. Execution
    /// behaviour — fidelity and engine — is fixed by the [`DeviceConfig`]
    /// at construction (see [`DeviceConfig::with_fidelity`] and
    /// [`DeviceConfig::with_engine`]).
    pub fn try_new(cfg: DeviceConfig) -> Result<Device, SimError> {
        cfg.validate()
            .map_err(|detail| SimError::InvalidConfig { detail })?;
        Ok(Device {
            cfg,
            mem: GlobalMemory::new(),
            kernel_ns: 0.0,
            transfer_ns_total: 0.0,
            launches: 0,
            cumulative: KernelStats::default(),
            profile: ProfileReport::default(),
            races: RaceSummary::default(),
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Allocates `len` zeroed words (no modeled cost, like `cudaMalloc`
    /// rounding errors we ignore).
    pub fn alloc(&mut self, label: impl Into<String>, len: usize) -> DevicePtr {
        self.mem.alloc(label, len)
    }

    /// Allocates and uploads a host slice, charging a H2D transfer.
    pub fn alloc_from_slice(&mut self, label: impl Into<String>, src: &[u32]) -> DevicePtr {
        self.transfer_ns_total += transfer_ns(&self.cfg, src.len() * 4);
        self.mem.alloc_from_slice(label, src)
    }

    /// Allocates `len` words set to `fill`, charging a device-side memset
    /// (bandwidth-bound, no PCIe).
    pub fn alloc_filled(&mut self, label: impl Into<String>, len: usize, fill: u32) -> DevicePtr {
        if !matches!(self.cfg.fidelity, SimFidelity::Functional) {
            self.kernel_ns += self.memset_cost(len);
        }
        self.mem.alloc_filled(label, len, fill)
    }

    /// Downloads a buffer, charging a D2H transfer.
    pub fn read(&mut self, ptr: DevicePtr) -> Vec<u32> {
        let words = self.mem.len(ptr).unwrap_or(0);
        self.transfer_ns_total += transfer_ns(&self.cfg, words * 4);
        self.mem.read(ptr).expect("read of unallocated buffer")
    }

    /// Downloads the first `words` words of a buffer, charging a D2H
    /// transfer for just those bytes. The sharded runtime drains its
    /// variable-length pair buffers this way instead of paying for the
    /// unused tail.
    pub fn read_prefix(&mut self, ptr: DevicePtr, words: usize) -> Result<Vec<u32>, SimError> {
        self.transfer_ns_total += transfer_ns(&self.cfg, words * 4);
        self.mem.read_prefix(ptr, words)
    }

    /// Downloads one word (4-byte D2H; latency-dominated — this is what
    /// the adaptive runtime pays every time it samples the working set
    /// size).
    pub fn read_word(&mut self, ptr: DevicePtr, index: usize) -> Result<u32, SimError> {
        self.transfer_ns_total += transfer_ns(&self.cfg, 4);
        self.mem.read_word(ptr, index)
    }

    /// Uploads a host slice over an existing buffer, charging H2D.
    pub fn write(&mut self, ptr: DevicePtr, src: &[u32]) -> Result<(), SimError> {
        self.transfer_ns_total += transfer_ns(&self.cfg, src.len() * 4);
        self.mem.write(ptr, src)
    }

    /// Uploads a host slice over the front of an existing (possibly
    /// longer) buffer, charging H2D for just those bytes.
    pub fn write_prefix(&mut self, ptr: DevicePtr, src: &[u32]) -> Result<(), SimError> {
        self.transfer_ns_total += transfer_ns(&self.cfg, src.len() * 4);
        self.mem.write_prefix(ptr, src)
    }

    /// Uploads one word.
    pub fn write_word(&mut self, ptr: DevicePtr, index: usize, value: u32) -> Result<(), SimError> {
        self.transfer_ns_total += transfer_ns(&self.cfg, 4);
        self.mem.write_word(ptr, index, value)
    }

    /// Device-side memset, charging bandwidth time (free under
    /// [`SimFidelity::Functional`], like any other device-side work).
    pub fn fill(&mut self, ptr: DevicePtr, value: u32) -> Result<(), SimError> {
        if !matches!(self.cfg.fidelity, SimFidelity::Functional) {
            let words = self.mem.len(ptr)?;
            self.kernel_ns += self.memset_cost(words);
        }
        self.mem.fill(ptr, value)
    }

    fn memset_cost(&self, words: usize) -> f64 {
        self.cfg.launch_overhead_us * 1_000.0 + (words * 4) as f64 / self.cfg.mem_bandwidth_gbps
    }

    /// Launches a kernel, advancing the clock by the modeled launch time.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        grid: Grid,
        args: &LaunchArgs,
    ) -> Result<LaunchReport, SimError> {
        let report = run_grid(&self.cfg, kernel, grid, args, &self.mem)?;
        self.kernel_ns += report.time_ns;
        self.launches += 1;
        self.cumulative += report.stats;
        self.profile.record(&self.cfg, &report);
        if let Some(r) = &report.races {
            self.races.absorb_report(r);
        }
        Ok(report)
    }

    /// Race counters accumulated over every race-checked launch since
    /// construction or the last [`Device::reset_clock`]. Monotonic:
    /// snapshot the counts before a run to attribute races to it.
    pub fn race_summary(&self) -> &RaceSummary {
        &self.races
    }

    /// Per-kernel launch profiles accumulated since construction or the
    /// last [`Device::reset_clock`]. Monotonic: snapshot it before a run
    /// and use [`ProfileReport::since`] to isolate that run's launches.
    pub fn profile(&self) -> &ProfileReport {
        &self.profile
    }

    /// Kernel statistics summed over every launch since the last
    /// [`Device::reset_clock`] — lets callers attribute memory traffic,
    /// divergence, and atomics to whole multi-launch algorithms.
    pub fn cumulative_stats(&self) -> KernelStats {
        self.cumulative
    }

    /// Total modeled time: kernels + transfers, in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.kernel_ns + self.transfer_ns_total
    }

    /// Modeled kernel time only.
    pub fn kernel_ns(&self) -> f64 {
        self.kernel_ns
    }

    /// Modeled transfer time only.
    pub fn transfer_time_ns(&self) -> f64 {
        self.transfer_ns_total
    }

    /// Number of kernel launches so far.
    pub fn launch_count(&self) -> u64 {
        self.launches
    }

    /// Resets the clock and launch counter (memory is retained).
    pub fn reset_clock(&mut self) {
        self.kernel_ns = 0.0;
        self.transfer_ns_total = 0.0;
        self.launches = 0;
        self.cumulative = KernelStats::default();
        self.profile = ProfileReport::default();
        self.races = RaceSummary::default();
    }

    /// Free-of-charge buffer download for tests and debugging.
    pub fn debug_read(&self, ptr: DevicePtr) -> Result<Vec<u32>, SimError> {
        self.mem.read(ptr)
    }

    /// Free-of-charge single-word read for tests and debugging.
    pub fn debug_read_word(&self, ptr: DevicePtr, index: usize) -> Result<u32, SimError> {
        self.mem.read_word(ptr, index)
    }

    /// Free-of-charge fill, for host-side re-initialization in tests.
    pub fn debug_fill(&self, ptr: DevicePtr, value: u32) -> Result<(), SimError> {
        self.mem.fill(ptr, value)
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.mem.allocation_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::KernelBuilder;

    #[test]
    fn clock_advances_on_every_charged_operation() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        assert_eq!(dev.elapsed_ns(), 0.0);
        let p = dev.alloc_from_slice("x", &[0; 1024]);
        let after_upload = dev.elapsed_ns();
        assert!(after_upload > 0.0);
        let _ = dev.read(p);
        assert!(dev.elapsed_ns() > after_upload);
        assert!(dev.transfer_time_ns() > 0.0);
        assert_eq!(dev.kernel_ns(), 0.0);
    }

    #[test]
    fn launch_charges_kernel_time_and_counts() {
        let mut k = KernelBuilder::new("nop");
        let b = k.buf_param();
        let tid = k.global_thread_id();
        k.store(b, tid.clone().rem(4u32), tid.clone());
        let kernel = k.build().unwrap();
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let p = dev.alloc("b", 4);
        let r = dev
            .launch(&kernel, Grid::new(1, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        assert!(r.time_ns >= 7_000.0); // at least launch overhead
        assert_eq!(dev.launch_count(), 1);
        assert!((dev.kernel_ns() - r.time_ns).abs() < 1e-9);
    }

    #[test]
    fn device_profile_tracks_launches_per_kernel() {
        let mut k = KernelBuilder::new("prof-k");
        let b = k.buf_param();
        let tid = k.global_thread_id();
        k.store(b, tid.clone().rem(4u32), tid.clone());
        let kernel = k.build().unwrap();
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let p = dev.alloc("b", 4);
        assert!(dev.profile().is_empty());
        dev.launch(&kernel, Grid::new(1, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        let snap = dev.profile().clone();
        dev.launch(&kernel, Grid::new(1, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        let prof = dev.profile();
        assert_eq!(prof.total_launches(), 2);
        let entry = prof.get("prof-k").unwrap();
        assert_eq!(entry.launches, 2);
        assert!(entry.compute_ns > 0.0);
        assert!(entry.stats.stores > 0);
        // the delta since the snapshot is exactly one launch
        assert_eq!(prof.since(&snap).get("prof-k").unwrap().launches, 1);
        dev.reset_clock();
        assert!(dev.profile().is_empty());
    }

    #[test]
    fn debug_accessors_are_free() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let p = dev.alloc("x", 8);
        dev.reset_clock();
        let _ = dev.debug_read(p).unwrap();
        let _ = dev.debug_read_word(p, 0).unwrap();
        dev.debug_fill(p, 3).unwrap();
        assert_eq!(dev.elapsed_ns(), 0.0);
        assert_eq!(dev.debug_read_word(p, 2).unwrap(), 3);
    }

    #[test]
    fn fill_and_alloc_filled_charge_memset() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let p = dev.alloc_filled("x", 1000, 7);
        assert!(dev.kernel_ns() > 0.0);
        assert_eq!(dev.debug_read_word(p, 999).unwrap(), 7);
        let before = dev.kernel_ns();
        dev.fill(p, 9).unwrap();
        assert!(dev.kernel_ns() > before);
    }

    #[test]
    fn reset_clock_clears_accounting_but_not_memory() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let p = dev.alloc_from_slice("x", &[5, 6]);
        dev.reset_clock();
        assert_eq!(dev.elapsed_ns(), 0.0);
        assert_eq!(dev.launch_count(), 0);
        assert_eq!(dev.debug_read(p).unwrap(), vec![5, 6]);
    }

    #[test]
    fn race_detector_catches_injected_harmful_race() {
        // Every thread stores its own tid into word 0: concurrent stores
        // of distinct values, the canonical harmful race.
        let mut k = KernelBuilder::new("racy");
        let b = k.buf_param();
        let tid = k.global_thread_id();
        k.store(b, 0u32, tid.clone());
        let kernel = k.build().unwrap();
        let mut dev = Device::try_new(
            DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::TimedWithRaces),
        )
        .unwrap();
        let p = dev.alloc("out", 1);
        let r = dev
            .launch(&kernel, Grid::new(2, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        let races = r.races.expect("detection enabled");
        assert!(!races.is_clean());
        assert_eq!(
            races.harmful[0].class,
            crate::mem::race::RaceClass::ConflictingStores
        );
        assert_eq!(races.harmful[0].buffer, "out");
        assert!(!dev.race_summary().is_clean());
        assert_eq!(dev.race_summary().launches_checked, 1);
    }

    #[test]
    fn race_detector_passes_benign_flag_raise() {
        // Every thread stores 1 into word 0 — racing, but same value.
        let mut k = KernelBuilder::new("flag");
        let b = k.buf_param();
        k.store(b, 0u32, 1u32);
        let kernel = k.build().unwrap();
        let cfg = DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::TimedWithRaces);
        let mut dev = Device::try_new(cfg).unwrap();
        let p = dev.alloc("flag", 1);
        let r = dev
            .launch(&kernel, Grid::new(4, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        let races = r.races.expect("detection enabled");
        assert!(races.is_clean());
        assert_eq!(
            races.benign[0].class,
            crate::mem::race::RaceClass::SameValueStore
        );
        assert!(dev.race_summary().is_clean());
        assert_eq!(dev.race_summary().benign_words, 1);
    }

    #[test]
    fn race_detection_off_by_default_and_reset_clears_summary() {
        let mut k = KernelBuilder::new("flag");
        let b = k.buf_param();
        k.store(b, 0u32, 1u32);
        let kernel = k.build().unwrap();
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let p = dev.alloc("flag", 1);
        let r = dev
            .launch(&kernel, Grid::new(2, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        assert!(r.races.is_none());
        assert_eq!(dev.race_summary().launches_checked, 0);

        let mut dev = Device::try_new(
            DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::TimedWithRaces),
        )
        .unwrap();
        let p = dev.alloc("flag", 1);
        dev.launch(&kernel, Grid::new(2, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        assert_eq!(dev.race_summary().launches_checked, 1);
        dev.reset_clock();
        assert_eq!(
            dev.race_summary(),
            &crate::mem::race::RaceSummary::default()
        );
    }

    #[test]
    fn functional_fidelity_runs_kernels_without_advancing_the_clock() {
        let mut k = KernelBuilder::new("nop");
        let b = k.buf_param();
        let tid = k.global_thread_id();
        k.store(b, tid.clone().rem(4u32), tid.clone());
        let kernel = k.build().unwrap();
        let mut dev =
            Device::try_new(DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::Functional))
                .unwrap();
        let p = dev.alloc("b", 4);
        let r = dev
            .launch(&kernel, Grid::new(1, 32), &LaunchArgs::new().bufs([p]))
            .unwrap();
        assert_eq!(r.time_ns, 0.0);
        assert_eq!(r.stats, KernelStats::default());
        assert!(r.races.is_none());
        assert_eq!(dev.kernel_ns(), 0.0);
        assert_eq!(dev.launch_count(), 1);
        // ...but the memory effects are real.
        assert_eq!(dev.debug_read(p).unwrap(), vec![28, 29, 30, 31]);
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut cfg = DeviceConfig::tesla_c2070();
        cfg.num_sms = 0;
        let err = Device::try_new(cfg).err().expect("invalid config must be rejected");
        match err {
            SimError::InvalidConfig { detail } => {
                assert!(detail.contains("num_sms"), "detail: {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
