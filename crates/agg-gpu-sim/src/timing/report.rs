//! Launch reports: the timing and statistics returned by every kernel
//! launch, the model that turns per-block costs into kernel time, and the
//! per-kernel [`ProfileReport`] the device accumulates across launches.

use crate::config::DeviceConfig;
use crate::json::Json;
use crate::mem::race::RaceReport;
use crate::timing::cost::{BlockCost, CostStats};
use crate::timing::occupancy::Occupancy;

/// Aggregated kernel statistics (all blocks).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Summed event counters.
    pub totals: CostStats,
    /// Summed issue cycles across blocks.
    pub issue_cycles: u64,
    /// Summed raw stall cycles across blocks (pre-hiding).
    pub stall_cycles: u64,
}

impl std::ops::AddAssign for KernelStats {
    fn add_assign(&mut self, o: KernelStats) {
        self.totals += o.totals;
        self.issue_cycles += o.issue_cycles;
        self.stall_cycles += o.stall_cycles;
    }
}

impl std::ops::SubAssign for KernelStats {
    fn sub_assign(&mut self, o: KernelStats) {
        self.totals -= o.totals;
        self.issue_cycles -= o.issue_cycles;
        self.stall_cycles -= o.stall_cycles;
    }
}

/// The result of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Number of blocks launched.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
    /// Modeled wall time of the launch in nanoseconds (including launch
    /// overhead).
    pub time_ns: f64,
    /// Compute-path time (issue + exposed stalls), ns.
    pub compute_ns: f64,
    /// Bandwidth-path time (bytes / BW), ns.
    pub mem_ns: f64,
    /// Fixed launch overhead, ns.
    pub overhead_ns: f64,
    /// Residency used for latency hiding.
    pub occupancy: Occupancy,
    /// Aggregated statistics.
    pub stats: KernelStats,
    /// Race analysis of this launch; `Some` only under
    /// [`crate::SimFidelity::TimedWithRaces`].
    pub races: Option<RaceReport>,
}

/// Combines per-block costs into a launch report.
///
/// Model (DESIGN.md §5):
/// * Blocks are assigned to SMs round-robin; each SM's serial issue
///   pipeline processes its blocks' `issue_cycles` back to back.
/// * Raw stall cycles are divided by the number of resident warps (latency
///   hiding): small launches expose DRAM latency, saturated launches hide
///   it.
/// * The kernel's compute time is the busiest SM's total; memory time is
///   total bytes over device bandwidth; the kernel overlaps the two, so
///   wall time is their max plus fixed launch overhead.
pub fn finalize_launch(
    cfg: &DeviceConfig,
    kernel: &str,
    grid_blocks: u32,
    block_threads: u32,
    shared_bytes: u32,
    block_costs: &[BlockCost],
) -> LaunchReport {
    let occ = Occupancy::compute(cfg, block_threads, shared_bytes);
    let mut stats = KernelStats::default();
    let mut sm_cycles = vec![0f64; cfg.num_sms as usize];
    let hiding = occ.warps_per_sm.max(1) as f64;
    for (i, bc) in block_costs.iter().enumerate() {
        stats.totals += bc.stats;
        stats.issue_cycles += bc.issue_cycles;
        stats.stall_cycles += bc.stall_cycles;
        let exposed = bc.issue_cycles as f64 + bc.stall_cycles as f64 / hiding;
        let slot = i % cfg.num_sms as usize;
        sm_cycles[slot] += exposed;
    }
    let busiest = sm_cycles.iter().copied().fold(0.0f64, f64::max);
    let compute_ns = cfg.cycles_to_ns(busiest);
    let mem_ns = stats.totals.mem_bytes as f64 / cfg.mem_bandwidth_gbps;
    let overhead_ns = cfg.launch_overhead_us * 1_000.0;
    LaunchReport {
        kernel: kernel.to_string(),
        grid_blocks,
        block_threads,
        time_ns: overhead_ns + compute_ns.max(mem_ns),
        compute_ns,
        mem_ns,
        overhead_ns,
        occupancy: occ,
        stats,
        races: None,
    }
}

/// Profile of one kernel aggregated over every launch it has had.
///
/// This is the "nvprof row" for a kernel: where its time went
/// (compute vs. bandwidth vs. launch overhead), how well its accesses
/// coalesced, and what residency it achieved. Built by
/// [`ProfileReport::record`] from each [`LaunchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchProfile {
    /// Kernel name.
    pub kernel: String,
    /// Number of launches recorded.
    pub launches: u64,
    /// Total blocks across launches.
    pub blocks: u64,
    /// Total modeled wall time, ns (compute/mem overlap + overhead).
    pub time_ns: f64,
    /// Total compute-path time (issue + exposed stalls), ns.
    pub compute_ns: f64,
    /// Total bandwidth-path time (bytes / BW), ns.
    pub mem_ns: f64,
    /// Total fixed launch overhead, ns.
    pub overhead_ns: f64,
    /// Summed issue-pipeline cycles.
    pub issue_cycles: u64,
    /// Summed raw stall cycles (pre-hiding).
    pub stall_cycles: u64,
    /// Residency of the most recent launch (launch geometry is stable per
    /// kernel in this workspace, so this is representative).
    pub occupancy: Occupancy,
    /// Occupancy of the most recent launch as a fraction of the device's
    /// maximum resident warps.
    pub occupancy_fraction: f64,
    /// Summed event counters.
    pub stats: CostStats,
}

impl LaunchProfile {
    fn new(kernel: &str) -> LaunchProfile {
        LaunchProfile {
            kernel: kernel.to_string(),
            launches: 0,
            blocks: 0,
            time_ns: 0.0,
            compute_ns: 0.0,
            mem_ns: 0.0,
            overhead_ns: 0.0,
            issue_cycles: 0,
            stall_cycles: 0,
            occupancy: Occupancy {
                blocks_per_sm: 0,
                warps_per_sm: 0,
            },
            occupancy_fraction: 0.0,
            stats: CostStats::default(),
        }
    }

    fn record(&mut self, cfg: &DeviceConfig, r: &LaunchReport) {
        self.launches += 1;
        self.blocks += r.grid_blocks as u64;
        self.time_ns += r.time_ns;
        self.compute_ns += r.compute_ns;
        self.mem_ns += r.mem_ns;
        self.overhead_ns += r.overhead_ns;
        self.issue_cycles += r.stats.issue_cycles;
        self.stall_cycles += r.stats.stall_cycles;
        self.occupancy = r.occupancy;
        self.occupancy_fraction = r.occupancy.fraction(cfg);
        self.stats += r.stats.totals;
    }

    /// Memory transactions per warp-level global access: 1.0 is perfectly
    /// coalesced, 32.0 is fully scattered 4-byte accesses. Returns 0 for
    /// kernels that never touch global memory.
    pub fn transactions_per_access(&self) -> f64 {
        let accesses = self.stats.loads + self.stats.stores;
        if accesses == 0 {
            return 0.0;
        }
        self.stats.mem_transactions as f64 / accesses as f64
    }

    /// Coalescing efficiency in `(0, 1]`: the reciprocal of
    /// [`LaunchProfile::transactions_per_access`] (1.0 for kernels with no
    /// global traffic — nothing was wasted).
    pub fn coalescing_efficiency(&self) -> f64 {
        let tpa = self.transactions_per_access();
        if tpa <= 1.0 {
            1.0
        } else {
            1.0 / tpa
        }
    }

    /// This profile as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.as_str().into()),
            ("launches", self.launches.into()),
            ("blocks", self.blocks.into()),
            ("time_ns", self.time_ns.into()),
            ("compute_ns", self.compute_ns.into()),
            ("mem_ns", self.mem_ns.into()),
            ("overhead_ns", self.overhead_ns.into()),
            ("issue_cycles", self.issue_cycles.into()),
            ("stall_cycles", self.stall_cycles.into()),
            ("blocks_per_sm", self.occupancy.blocks_per_sm.into()),
            ("warps_per_sm", self.occupancy.warps_per_sm.into()),
            ("occupancy_fraction", self.occupancy_fraction.into()),
            ("coalescing_efficiency", self.coalescing_efficiency().into()),
            ("instructions", self.stats.instructions.into()),
            ("mem_transactions", self.stats.mem_transactions.into()),
            ("mem_bytes", self.stats.mem_bytes.into()),
            ("atomics", self.stats.atomics.into()),
            ("atomic_conflicts", self.stats.atomic_conflicts.into()),
            ("divergent_branches", self.stats.divergent_branches.into()),
            ("simt_efficiency", self.stats.simt_efficiency(32).into()),
        ])
    }
}

/// Per-kernel profiles for a span of device activity.
///
/// The device keeps one of these running from construction (or the last
/// [`crate::Device::reset_clock`]); callers snapshot it and use
/// [`ProfileReport::since`] to attribute launches to a single run.
/// Kernels are kept in first-launch order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    kernels: Vec<LaunchProfile>,
}

impl ProfileReport {
    /// Folds one launch report into the profile for its kernel.
    pub fn record(&mut self, cfg: &DeviceConfig, r: &LaunchReport) {
        let entry = match self.kernels.iter_mut().find(|p| p.kernel == r.kernel) {
            Some(p) => p,
            None => {
                self.kernels.push(LaunchProfile::new(&r.kernel));
                self.kernels.last_mut().unwrap()
            }
        };
        entry.record(cfg, r);
    }

    /// Profiles in first-launch order.
    pub fn kernels(&self) -> &[LaunchProfile] {
        &self.kernels
    }

    /// The profile for a kernel, if it has launched.
    pub fn get(&self, kernel: &str) -> Option<&LaunchProfile> {
        self.kernels.iter().find(|p| p.kernel == kernel)
    }

    /// True if nothing has launched in this span.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Total launches across all kernels.
    pub fn total_launches(&self) -> u64 {
        self.kernels.iter().map(|p| p.launches).sum()
    }

    /// Total modeled kernel time across all kernels, ns.
    pub fn total_time_ns(&self) -> f64 {
        self.kernels.iter().map(|p| p.time_ns).sum()
    }

    /// The activity recorded in `self` but not in the `earlier` snapshot
    /// of the same monotonic profile: per-kernel counter subtraction.
    /// Kernels whose launch count did not change are dropped.
    pub fn since(&self, earlier: &ProfileReport) -> ProfileReport {
        let mut out = ProfileReport::default();
        for now in &self.kernels {
            let before = earlier.get(&now.kernel);
            let launches_before = before.map_or(0, |p| p.launches);
            if now.launches == launches_before {
                continue;
            }
            let mut delta = now.clone();
            if let Some(b) = before {
                delta.launches -= b.launches;
                delta.blocks -= b.blocks;
                delta.time_ns -= b.time_ns;
                delta.compute_ns -= b.compute_ns;
                delta.mem_ns -= b.mem_ns;
                delta.overhead_ns -= b.overhead_ns;
                delta.issue_cycles -= b.issue_cycles;
                delta.stall_cycles -= b.stall_cycles;
                delta.stats -= b.stats;
            }
            out.kernels.push(delta);
        }
        out
    }

    /// Sums another profile into this one, matching kernels by name and
    /// appending unseen kernels in first-appearance order. Merging the
    /// per-query [`ProfileReport::since`] slices of a batch reproduces the
    /// device-level delta spanning the whole batch (ns fields up to float
    /// summation order, counters exactly).
    pub fn merge(&mut self, other: &ProfileReport) {
        for p in &other.kernels {
            match self.kernels.iter_mut().find(|q| q.kernel == p.kernel) {
                Some(q) => {
                    q.launches += p.launches;
                    q.blocks += p.blocks;
                    q.time_ns += p.time_ns;
                    q.compute_ns += p.compute_ns;
                    q.mem_ns += p.mem_ns;
                    q.overhead_ns += p.overhead_ns;
                    q.issue_cycles += p.issue_cycles;
                    q.stall_cycles += p.stall_cycles;
                    q.occupancy = p.occupancy;
                    q.occupancy_fraction = p.occupancy_fraction;
                    q.stats += p.stats;
                }
                None => self.kernels.push(p.clone()),
            }
        }
    }

    /// The whole report as a JSON array of per-kernel objects.
    pub fn to_json(&self) -> Json {
        Json::arr(self.kernels.iter().map(|p| p.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(issue: u64, stall: u64, bytes: u64) -> BlockCost {
        BlockCost {
            issue_cycles: issue,
            stall_cycles: stall,
            stats: CostStats {
                mem_bytes: bytes,
                ..Default::default()
            },
        }
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let cfg = DeviceConfig::tesla_c2070();
        let r = finalize_launch(&cfg, "k", 0, 32, 0, &[]);
        assert!((r.time_ns - 7_000.0).abs() < 1e-9);
        assert_eq!(r.compute_ns, 0.0);
    }

    #[test]
    fn single_block_uses_one_sm() {
        let cfg = DeviceConfig::tesla_c2070();
        let one = finalize_launch(&cfg, "k", 1, 32, 0, &[block(1150, 0, 0)]);
        // 1150 cycles at 1.15 GHz = 1000 ns + 7000 overhead
        assert!((one.time_ns - 8_000.0).abs() < 1.0);
    }

    #[test]
    fn blocks_spread_over_sms() {
        let cfg = DeviceConfig::tesla_c2070();
        let blocks: Vec<_> = (0..14).map(|_| block(1150, 0, 0)).collect();
        let spread = finalize_launch(&cfg, "k", 14, 32, 0, &blocks);
        // 14 blocks over 14 SMs: same busiest-SM time as one block.
        assert!((spread.compute_ns - 1000.0).abs() < 1.0);
        let blocks: Vec<_> = (0..28).map(|_| block(1150, 0, 0)).collect();
        let double = finalize_launch(&cfg, "k", 28, 32, 0, &blocks);
        assert!((double.compute_ns - 2000.0).abs() < 1.0);
    }

    #[test]
    fn latency_hiding_scales_with_occupancy() {
        let cfg = DeviceConfig::tesla_c2070();
        // 32-thread blocks: 8 warps resident. 192-thread blocks: 48 warps.
        let small = finalize_launch(&cfg, "k", 1, 32, 0, &[block(0, 48_000, 0)]);
        let big = finalize_launch(&cfg, "k", 1, 192, 0, &[block(0, 48_000, 0)]);
        assert!(
            small.compute_ns > big.compute_ns * 5.0,
            "{} vs {}",
            small.compute_ns,
            big.compute_ns
        );
    }

    #[test]
    fn bandwidth_bound_kernels_report_mem_time() {
        let cfg = DeviceConfig::tesla_c2070();
        // 144 GB/s = 144 bytes/ns; 14.4 MB -> 100 us
        let r = finalize_launch(&cfg, "k", 1, 192, 0, &[block(10, 0, 14_400_000)]);
        assert!((r.mem_ns - 100_000.0).abs() < 1.0);
        assert!(r.time_ns >= r.mem_ns);
    }

    #[test]
    fn stats_aggregate_across_blocks() {
        let cfg = DeviceConfig::tesla_c2070();
        let r = finalize_launch(&cfg, "k", 2, 32, 0, &[block(5, 0, 10), block(7, 0, 20)]);
        assert_eq!(r.stats.issue_cycles, 12);
        assert_eq!(r.stats.totals.mem_bytes, 30);
    }

    #[test]
    fn profile_accumulates_per_kernel() {
        let cfg = DeviceConfig::tesla_c2070();
        let mut prof = ProfileReport::default();
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "a", 2, 192, 0, &[block(5, 0, 10)]),
        );
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "b", 1, 32, 0, &[block(7, 0, 20)]),
        );
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "a", 3, 192, 0, &[block(9, 0, 30)]),
        );
        assert_eq!(prof.kernels().len(), 2);
        assert_eq!(prof.total_launches(), 3);
        let a = prof.get("a").unwrap();
        assert_eq!(a.launches, 2);
        assert_eq!(a.blocks, 5);
        assert_eq!(a.issue_cycles, 14);
        assert_eq!(a.stats.mem_bytes, 40);
        assert!((a.occupancy_fraction - 1.0).abs() < 1e-12); // 192 tpb saturates
        assert!(a.time_ns > 0.0 && a.overhead_ns > 0.0);
        assert_eq!(prof.get("b").unwrap().launches, 1);
        assert!(prof.get("c").is_none());
    }

    #[test]
    fn profile_since_subtracts_snapshots() {
        let cfg = DeviceConfig::tesla_c2070();
        let mut prof = ProfileReport::default();
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "a", 1, 32, 0, &[block(5, 0, 10)]),
        );
        let snap = prof.clone();
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "a", 1, 32, 0, &[block(6, 0, 14)]),
        );
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "b", 1, 32, 0, &[block(7, 0, 20)]),
        );
        let delta = prof.since(&snap);
        // "a" keeps only the second launch; "b" is new in the delta.
        let a = delta.get("a").unwrap();
        assert_eq!(a.launches, 1);
        assert_eq!(a.issue_cycles, 6);
        assert_eq!(a.stats.mem_bytes, 14);
        assert_eq!(delta.get("b").unwrap().stats.mem_bytes, 20);
        // a snapshot minus itself is empty
        assert!(prof.since(&prof).is_empty());
    }

    #[test]
    fn merged_slices_reproduce_the_spanning_delta() {
        // Two consecutive since() slices, merged, equal the one delta
        // spanning both — the identity batch profile attribution rests on.
        let cfg = DeviceConfig::tesla_c2070();
        let mut prof = ProfileReport::default();
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "a", 1, 32, 0, &[block(5, 0, 10)]),
        );
        let snap0 = prof.clone();
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "a", 1, 32, 0, &[block(6, 0, 14)]),
        );
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "b", 1, 32, 0, &[block(7, 0, 20)]),
        );
        let snap1 = prof.clone();
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "b", 1, 32, 0, &[block(8, 0, 4)]),
        );
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "c", 2, 192, 0, &[block(9, 0, 6)]),
        );

        let mut merged = snap1.since(&snap0);
        merged.merge(&prof.since(&snap1));
        let spanning = prof.since(&snap0);
        assert_eq!(merged.kernels().len(), spanning.kernels().len());
        for (m, s) in merged.kernels().iter().zip(spanning.kernels()) {
            assert_eq!(m.kernel, s.kernel);
            assert_eq!(m.launches, s.launches);
            assert_eq!(m.blocks, s.blocks);
            assert_eq!(m.issue_cycles, s.issue_cycles);
            assert_eq!(m.stats, s.stats);
            assert!((m.time_ns - s.time_ns).abs() <= 1e-6 * s.time_ns.max(1.0));
        }
        assert_eq!(merged.total_launches(), spanning.total_launches());

        // Merging into an empty report copies the other side.
        let mut empty = ProfileReport::default();
        empty.merge(&spanning);
        assert_eq!(empty, spanning);
    }

    #[test]
    fn coalescing_efficiency_from_counters() {
        let mut p = LaunchProfile::new("k");
        assert_eq!(p.transactions_per_access(), 0.0);
        assert_eq!(p.coalescing_efficiency(), 1.0);
        p.stats.loads = 10;
        p.stats.mem_transactions = 40; // 4 transactions per warp access
        assert!((p.transactions_per_access() - 4.0).abs() < 1e-12);
        assert!((p.coalescing_efficiency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn profile_json_has_the_acceptance_fields() {
        let cfg = DeviceConfig::tesla_c2070();
        let mut prof = ProfileReport::default();
        prof.record(
            &cfg,
            &finalize_launch(&cfg, "k", 1, 192, 0, &[block(5, 3, 10)]),
        );
        let s = prof.to_json().render();
        for field in [
            "\"kernel\":\"k\"",
            "\"compute_ns\":",
            "\"mem_ns\":",
            "\"issue_cycles\":5",
            "\"stall_cycles\":3",
            "\"occupancy_fraction\":1",
            "\"coalescing_efficiency\":",
        ] {
            assert!(s.contains(field), "missing {field} in {s}");
        }
    }
}
