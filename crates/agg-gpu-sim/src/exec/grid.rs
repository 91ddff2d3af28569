//! Grid-level launch machinery: launch configuration, argument binding,
//! validation against device limits, and block execution.

use crate::config::{DeviceConfig, ExecEngine, SimFidelity};
use crate::error::SimError;
use crate::exec::bytecode::{self, BcScratch};
use crate::ir::builder::Kernel;
use crate::mem::global::{Buffer, DevicePtr, GlobalMemory};
use crate::mem::race::{analyze, RaceLog};
use crate::timing::cost::BlockCost;
use crate::timing::occupancy::Occupancy;
use crate::timing::report::{finalize_launch, KernelStats, LaunchReport};

/// Everything a block needs to execute: the launch's resolved arguments
/// plus geometry. Shared read-only by every block of the launch.
pub struct GridCtx<'a> {
    pub(crate) cfg: &'a DeviceConfig,
    pub(crate) kernel: &'a Kernel,
    pub(crate) bufs: Vec<&'a Buffer>,
    pub(crate) scalars: &'a [u32],
    pub(crate) grid_dim: u32,
    pub(crate) block_dim: u32,
}

/// Launch geometry (linearized: the simulator flattens CUDA's 3-D grids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Number of thread blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl Grid {
    /// Explicit geometry.
    pub fn new(blocks: u32, threads_per_block: u32) -> Grid {
        Grid {
            blocks,
            threads_per_block,
        }
    }

    /// Enough `threads_per_block`-sized blocks to cover `total_threads`
    /// (the usual `<<<ceil(n/tpb), tpb>>>` idiom).
    pub fn linear(total_threads: u64, threads_per_block: u32) -> Grid {
        let tpb = threads_per_block.max(1);
        let blocks = total_threads.div_ceil(tpb as u64);
        Grid {
            blocks: blocks.min(u32::MAX as u64) as u32,
            threads_per_block: tpb,
        }
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> u64 {
        self.blocks as u64 * self.threads_per_block as u64
    }
}

/// Buffer and scalar arguments for a launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchArgs {
    /// Device buffers, bound to the kernel's buffer slots in order.
    pub bufs: Vec<DevicePtr>,
    /// Uniform scalars, bound to the kernel's scalar slots in order.
    pub scalars: Vec<u32>,
}

impl LaunchArgs {
    /// Empty argument list.
    pub fn new() -> LaunchArgs {
        LaunchArgs::default()
    }

    /// Sets the buffer arguments.
    pub fn bufs(mut self, bufs: impl IntoIterator<Item = DevicePtr>) -> LaunchArgs {
        self.bufs = bufs.into_iter().collect();
        self
    }

    /// Sets the scalar arguments.
    pub fn scalars(mut self, scalars: impl IntoIterator<Item = u32>) -> LaunchArgs {
        self.scalars = scalars.into_iter().collect();
        self
    }
}

/// Validates a launch against kernel arity and device limits.
pub(crate) fn validate_launch(
    cfg: &DeviceConfig,
    kernel: &Kernel,
    grid: Grid,
    args: &LaunchArgs,
) -> Result<(), SimError> {
    if grid.threads_per_block == 0 {
        return Err(SimError::BadLaunch {
            detail: "threads_per_block must be positive".into(),
        });
    }
    if grid.threads_per_block > cfg.max_threads_per_block {
        return Err(SimError::BadLaunch {
            detail: format!(
                "threads_per_block {} exceeds device limit {}",
                grid.threads_per_block, cfg.max_threads_per_block
            ),
        });
    }
    let shared_bytes = kernel.shared_words * 4;
    if shared_bytes > cfg.shared_mem_per_sm {
        return Err(SimError::BadLaunch {
            detail: format!(
                "kernel uses {} B shared memory, device has {} B per SM",
                shared_bytes, cfg.shared_mem_per_sm
            ),
        });
    }
    if args.bufs.len() != kernel.num_bufs as usize {
        return Err(SimError::ArgumentMismatch {
            detail: format!(
                "kernel '{}' expects {} buffers, got {}",
                kernel.name,
                kernel.num_bufs,
                args.bufs.len()
            ),
        });
    }
    if args.scalars.len() != kernel.num_scalars as usize {
        return Err(SimError::ArgumentMismatch {
            detail: format!(
                "kernel '{}' expects {} scalars, got {}",
                kernel.name,
                kernel.num_scalars,
                args.scalars.len()
            ),
        });
    }
    Ok(())
}

/// Runs every block of the launch through `exec`, in block order on the
/// calling thread, and collects per-block costs. One `S` scratch serves
/// every block; under race detection (`race_log` is `Some`) the engine
/// logs its accesses into it.
fn run_blocks<S, F>(
    g: &GridCtx<'_>,
    grid: Grid,
    race_log: &mut Option<RaceLog>,
    exec: F,
) -> Result<Vec<BlockCost>, SimError>
where
    S: Default,
    F: Fn(&GridCtx<'_>, u32, &mut S, Option<&mut RaceLog>) -> Result<BlockCost, SimError>,
{
    let mut scratch = S::default();
    let mut costs = Vec::with_capacity(grid.blocks as usize);
    for b in 0..grid.blocks {
        costs.push(exec(g, b, &mut scratch, race_log.as_mut())?);
    }
    Ok(costs)
}

/// Runs a launch end to end: validation, argument binding, block
/// execution on the configured [`ExecEngine`], and report assembly per
/// the configured [`SimFidelity`].
pub(crate) fn run_grid(
    cfg: &DeviceConfig,
    kernel: &Kernel,
    grid: Grid,
    args: &LaunchArgs,
    mem: &GlobalMemory,
) -> Result<LaunchReport, SimError> {
    validate_launch(cfg, kernel, grid, args)?;
    let bufs = args
        .bufs
        .iter()
        .map(|&p| mem.buffer(p))
        .collect::<Result<Vec<_>, _>>()?;
    let g = GridCtx {
        cfg,
        kernel,
        bufs,
        scalars: &args.scalars,
        grid_dim: grid.blocks,
        block_dim: grid.threads_per_block,
    };
    let timed = !matches!(cfg.fidelity, SimFidelity::Functional);
    let detect = matches!(cfg.fidelity, SimFidelity::TimedWithRaces);
    // Keyed by buffer: slots bound to one buffer share the lowest slot's
    // key, so accesses through aliased slots meet in the analysis.
    let mut race_log = detect.then(|| RaceLog::new(&args.bufs, &kernel.bytecode().writes));
    let costs: Vec<BlockCost> = match cfg.engine {
        ExecEngine::Bytecode => {
            let bc = kernel.bytecode();
            run_blocks::<BcScratch, _>(&g, grid, &mut race_log, |g, b, s, l| {
                bytecode::run_block(g, bc, b, s, l, timed)
            })?
        }
        #[cfg(any(test, feature = "interp-oracle"))]
        ExecEngine::Interpreter => {
            use crate::exec::interp;
            run_blocks::<interp::Scratch, _>(&g, grid, &mut race_log, |g, b, s, l| {
                interp::run_block(g, b, s, l)
            })?
        }
        #[cfg(not(any(test, feature = "interp-oracle")))]
        ExecEngine::Interpreter => {
            return Err(SimError::BadLaunch {
                detail: "ExecEngine::Interpreter requires the `interp-oracle` feature of agg-gpu-sim"
                    .into(),
            })
        }
    };
    let mut report = if timed {
        finalize_launch(
            cfg,
            &kernel.name,
            grid.blocks,
            grid.threads_per_block,
            kernel.shared_words * 4,
            &costs,
        )
    } else {
        // Fast-functional: memory effects only. The report is all-zero by
        // contract (see `SimFidelity::Functional`), without paying for
        // `finalize_launch`'s latency-hiding model or launch overhead.
        LaunchReport {
            kernel: kernel.name.clone(),
            grid_blocks: grid.blocks,
            block_threads: grid.threads_per_block,
            time_ns: 0.0,
            compute_ns: 0.0,
            mem_ns: 0.0,
            overhead_ns: 0.0,
            occupancy: Occupancy::compute(cfg, grid.threads_per_block, kernel.shared_words * 4),
            stats: KernelStats::default(),
            races: None,
        }
    };
    if let Some(mut log) = race_log {
        let labels: Vec<&str> = g.bufs.iter().map(|b| b.label.as_str()).collect();
        report.races = Some(analyze(&kernel.name, &labels, &mut log.records));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::KernelBuilder;
    use crate::mem::race::RaceClass;

    fn incr_kernel() -> Kernel {
        let mut k = KernelBuilder::new("incr");
        let buf = k.buf_param();
        let n = k.scalar_param();
        let tid = k.global_thread_id();
        k.if_(tid.clone().lt(n), |k| {
            let v = k.load(buf, tid.clone());
            k.store(buf, tid.clone(), v.add(1u32));
        });
        k.build().unwrap()
    }

    #[test]
    fn grid_linear_covers_threads() {
        let g = Grid::linear(100, 32);
        assert_eq!(g.blocks, 4);
        assert_eq!(g.total_threads(), 128);
        assert_eq!(Grid::linear(0, 32).blocks, 0);
        assert_eq!(Grid::linear(1, 192).blocks, 1);
    }

    #[test]
    fn linear_grid_runs_every_thread_once() {
        let cfg = DeviceConfig::tesla_c2070();
        let kernel = incr_kernel();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("x", 1000);
        let args = LaunchArgs::new().bufs([p]).scalars([1000]);
        let r = run_grid(&cfg, &kernel, Grid::linear(1000, 192), &args, &mem).unwrap();
        assert_eq!(mem.read(p).unwrap(), vec![1; 1000]);
        assert!(r.time_ns > 0.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let cfg = DeviceConfig::tesla_c2070();
        let kernel = incr_kernel();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("x", 10);

        let bad_tpb = run_grid(
            &cfg,
            &kernel,
            Grid::new(1, 2048),
            &LaunchArgs::new().bufs([p]).scalars([10]),
            &mem,
        );
        assert!(matches!(bad_tpb, Err(SimError::BadLaunch { .. })));

        let zero_tpb = run_grid(
            &cfg,
            &kernel,
            Grid::new(1, 0),
            &LaunchArgs::new().bufs([p]).scalars([10]),
            &mem,
        );
        assert!(matches!(zero_tpb, Err(SimError::BadLaunch { .. })));

        let missing_buf = run_grid(
            &cfg,
            &kernel,
            Grid::new(1, 32),
            &LaunchArgs::new().scalars([10]),
            &mem,
        );
        assert!(matches!(
            missing_buf,
            Err(SimError::ArgumentMismatch { .. })
        ));

        let missing_scalar = run_grid(
            &cfg,
            &kernel,
            Grid::new(1, 32),
            &LaunchArgs::new().bufs([p]),
            &mem,
        );
        assert!(matches!(
            missing_scalar,
            Err(SimError::ArgumentMismatch { .. })
        ));
    }

    #[test]
    fn oversized_shared_memory_rejected() {
        let cfg = DeviceConfig::tesla_c2070();
        let mut k = KernelBuilder::new("big-shared");
        k.shared_alloc(20_000); // 80 KB > 48 KB
        let kernel = k.build().unwrap();
        let mem = GlobalMemory::new();
        let r = run_grid(
            &cfg,
            &kernel,
            Grid::new(1, 32),
            &LaunchArgs::new(),
            &mem,
        );
        assert!(matches!(r, Err(SimError::BadLaunch { .. })));
    }

    #[test]
    fn zero_block_launch_is_legal_noop() {
        let cfg = DeviceConfig::tesla_c2070();
        let kernel = incr_kernel();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("x", 4);
        let r = run_grid(
            &cfg,
            &kernel,
            Grid::new(0, 32),
            &LaunchArgs::new().bufs([p]).scalars([4]),
            &mem,
        )
        .unwrap();
        assert_eq!(mem.read(p).unwrap(), vec![0; 4]);
        assert_eq!(r.grid_blocks, 0);
    }

    #[test]
    fn aliased_slots_race_as_one_buffer() {
        // Loads through slot 0 (never stored to) race with stores of
        // distinct values through slot 1 once one buffer is bound to both.
        let mut k = KernelBuilder::new("alias");
        let src = k.buf_param();
        let dst = k.buf_param();
        let v = k.load(src, 0u32);
        let b = k.block_idx();
        k.store(dst, 0u32, v.add(b));
        let kernel = k.build().unwrap();
        let cfg = DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::TimedWithRaces);
        let mut mem = GlobalMemory::new();
        let x = mem.alloc("x", 4);
        let y = mem.alloc("y", 4);

        let aliased = run_grid(
            &cfg,
            &kernel,
            Grid::new(2, 32),
            &LaunchArgs::new().bufs([x, x]),
            &mem,
        )
        .unwrap()
        .races
        .expect("detection enabled");
        let read_vs_store = aliased
            .harmful
            .iter()
            .find(|f| f.class == RaceClass::ReadVsStore)
            .expect("aliased read-vs-store is reported");
        assert_eq!(
            (read_vs_store.buffer.as_str(), read_vs_store.word),
            ("x", 0)
        );

        // Two distinct buffers: the loads cannot race and are not logged.
        let distinct = run_grid(
            &cfg,
            &kernel,
            Grid::new(2, 32),
            &LaunchArgs::new().bufs([x, y]),
            &mem,
        )
        .unwrap()
        .races
        .expect("detection enabled");
        assert!(distinct
            .harmful
            .iter()
            .all(|f| f.class == RaceClass::ConflictingStores));
        assert!(distinct.harmful.iter().all(|f| f.buffer == "y"));
    }
}
