#![warn(missing_docs)]

//! A warp-level SIMT GPU simulator.
//!
//! This crate stands in for the CUDA device the paper ran on (an NVIDIA
//! Tesla C2070, Fermi). Kernels are written in a small structured IR
//! ([`ir`]) and executed warp-synchronously: all 32 lanes of a warp step
//! through the same instruction under an active-lane mask, exactly like
//! SIMT hardware. The properties the paper's analysis depends on are
//! *mechanisms* here, not assumptions:
//!
//! * **Branch divergence** — a warp whose lanes disagree on an `if`
//!   executes *both* sides, and a `while` runs until its slowest lane
//!   finishes, charging issue slots for the whole warp each iteration.
//! * **Memory coalescing** — every global access groups the active lanes'
//!   byte addresses into aligned 128-byte segments; each distinct segment
//!   is one memory transaction that costs pipeline slots and bandwidth.
//! * **Atomic serialization** — lanes whose atomics hit the same address
//!   serialize; the queue-based working set generation pays for this.
//! * **Occupancy & latency hiding** — memory stall cycles are divided by
//!   the number of resident warps per SM, so small launches (small working
//!   sets) expose latency while large launches hide it.
//! * **Launch overhead** — every kernel launch pays a fixed host-side
//!   cost, which is what makes high-diameter road networks GPU-hostile.
//!
//! Functional results are exact (kernels really execute against device
//! buffers); timing is analytic and configurable via [`DeviceConfig`].
//! Kernels are compiled once to a flat bytecode and memoized; launches
//! run the bytecode either fully timed or fast-functional depending on
//! the configured [`SimFidelity`]. See `DESIGN.md` §5 for the model
//! summary and §5g for the bytecode engine.
//!
//! # Example
//!
//! ```
//! use agg_gpu_sim::prelude::*;
//!
//! // out[i] = a[i] + b[i]
//! let mut k = KernelBuilder::new("vec_add");
//! let (a, b, out) = (k.buf_param(), k.buf_param(), k.buf_param());
//! let n = k.scalar_param();
//! let tid = k.global_thread_id();
//! k.if_(tid.clone().lt(n), |k| {
//!     let x = k.load(a, tid.clone());
//!     let y = k.load(b, tid.clone());
//!     k.store(out, tid.clone(), x.add(y));
//! });
//! let kernel = k.build().unwrap();
//!
//! let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
//! let da = dev.alloc_from_slice("a", &[1, 2, 3, 4]);
//! let db = dev.alloc_from_slice("b", &[10, 20, 30, 40]);
//! let dout = dev.alloc("out", 4);
//! let report = dev
//!     .launch(&kernel, Grid::linear(4, 128), &LaunchArgs::new().bufs([da, db, dout]).scalars([4]))
//!     .unwrap();
//! assert_eq!(dev.read(dout), vec![11, 22, 33, 44]);
//! assert!(report.time_ns > 0.0);
//! ```

pub mod config;
pub mod device;
pub mod error;
pub mod exec;
pub mod ir;
pub mod json;
pub mod mem;
pub mod timing;

pub use config::{DeviceConfig, ExecEngine, SimFidelity};
pub use device::Device;
pub use error::SimError;
pub use exec::grid::{Grid, LaunchArgs};
pub use ir::builder::{Kernel, KernelBuilder};
pub use json::{Json, JsonError};
pub use mem::race::{RaceClass, RaceFinding, RaceReport, RaceSummary};
pub use mem::transfer::Interconnect;
pub use timing::report::{KernelStats, LaunchProfile, LaunchReport, ProfileReport};

/// Convenient imports for writing and launching kernels.
pub mod prelude {
    pub use crate::config::{DeviceConfig, ExecEngine, SimFidelity};
    pub use crate::device::Device;
    pub use crate::error::SimError;
    pub use crate::exec::grid::{Grid, LaunchArgs};
    pub use crate::ir::builder::{Kernel, KernelBuilder};
    pub use crate::ir::expr::Expr;
    pub use crate::mem::global::DevicePtr;
    pub use crate::mem::race::{RaceClass, RaceFinding, RaceReport, RaceSummary};
    pub use crate::mem::transfer::Interconnect;
    pub use crate::timing::report::{KernelStats, LaunchProfile, LaunchReport, ProfileReport};
}
