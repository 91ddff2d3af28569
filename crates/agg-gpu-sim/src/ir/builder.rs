//! Host-side kernel construction and validation.
//!
//! [`KernelBuilder`] mirrors how a CUDA C kernel reads: parameters first,
//! then straight-line statements with closures for control-flow bodies.
//! Register allocation is automatic; `build()` validates the result.

use super::expr::{BufSlot, Expr, Reg, Special};
use super::stmt::{AtomicOp, BarrierOp, Stmt};
use crate::error::SimError;
use crate::exec::bytecode::{compile, Bytecode};
use std::sync::{Arc, OnceLock};

/// A validated, immutable kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name (appears in error messages and launch reports).
    pub name: String,
    /// Top-level statement list.
    pub body: Vec<Stmt>,
    /// Number of virtual registers per lane.
    pub num_regs: u16,
    /// Number of buffer parameters expected at launch.
    pub num_bufs: u8,
    /// Number of scalar parameters expected at launch.
    pub num_scalars: u8,
    /// Shared memory words allocated per block.
    pub shared_words: u32,
    /// Memoized bytecode, compiled on first launch. Cloning a kernel
    /// shares the compiled form (behind an `Arc`); equality ignores it.
    pub(crate) compiled: OnceLock<Arc<Bytecode>>,
}

// `compiled` is a pure cache of `body`: two kernels are equal iff their
// IR is, regardless of whether either has been compiled yet.
impl PartialEq for Kernel {
    fn eq(&self, other: &Kernel) -> bool {
        self.name == other.name
            && self.body == other.body
            && self.num_regs == other.num_regs
            && self.num_bufs == other.num_bufs
            && self.num_scalars == other.num_scalars
            && self.shared_words == other.shared_words
    }
}

impl Kernel {
    /// The kernel's bytecode, compiled on first use and memoized.
    pub(crate) fn bytecode(&self) -> &Bytecode {
        self.compiled.get_or_init(|| Arc::new(compile(self)))
    }

    /// Checks the structural IR rules:
    /// * every register / buffer slot / scalar slot is within the declared
    ///   counts;
    /// * [`Stmt::Barrier`] appears only at the top level (the interpreter
    ///   phase-splits on it).
    pub fn validate(&self) -> Result<(), SimError> {
        let mut max_reg: Option<u16> = None;
        let mut max_buf: Option<u8> = None;
        let mut max_param: Option<u8> = None;
        for s in &self.body {
            max_reg = max_reg.max(s.max_reg());
            max_buf = max_buf.max(s.max_buf());
            max_param = max_param.max(s.max_param());
        }
        // Barrier intrinsics must sit at the top level so the interpreter
        // can phase-split on them.
        for s in &self.body {
            if !matches!(s, Stmt::Barrier { .. }) {
                let mut nested_barrier = false;
                s.visit(&mut |inner| {
                    if !std::ptr::eq(inner, s) && matches!(inner, Stmt::Barrier { .. }) {
                        nested_barrier = true;
                    }
                });
                if nested_barrier {
                    return Err(SimError::InvalidKernel {
                        detail: format!(
                            "kernel '{}': block-wide Barrier intrinsics must appear at the top level",
                            self.name
                        ),
                    });
                }
            }
        }
        if let Some(r) = max_reg {
            if r >= self.num_regs {
                return Err(SimError::InvalidKernel {
                    detail: format!(
                        "kernel '{}': register r{} used but only {} declared",
                        self.name, r, self.num_regs
                    ),
                });
            }
        }
        if let Some(b) = max_buf {
            if b >= self.num_bufs {
                return Err(SimError::InvalidKernel {
                    detail: format!(
                        "kernel '{}': buffer slot {} used but only {} declared",
                        self.name, b, self.num_bufs
                    ),
                });
            }
        }
        if let Some(p) = max_param {
            if p >= self.num_scalars {
                return Err(SimError::InvalidKernel {
                    detail: format!(
                        "kernel '{}': scalar slot {} used but only {} declared",
                        self.name, p, self.num_scalars
                    ),
                });
            }
        }
        Ok(())
    }

    /// Splits the top-level body into phases separated by barrier
    /// intrinsics: the interpreter runs each segment for *all* warps of a
    /// block, applies the collective, and proceeds — giving the intrinsic
    /// its block-wide semantics.
    pub fn phases(&self) -> Vec<(&[Stmt], Option<&Stmt>)> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for (i, s) in self.body.iter().enumerate() {
            if matches!(s, Stmt::Barrier { .. }) {
                out.push((&self.body[start..i], Some(s)));
                start = i + 1;
            }
        }
        out.push((&self.body[start..], None));
        out
    }
}

/// Ergonomic kernel constructor. See the crate-level example.
pub struct KernelBuilder {
    name: String,
    frames: Vec<Vec<Stmt>>,
    next_reg: u16,
    next_buf: u8,
    next_scalar: u8,
    shared_words: u32,
    error: Option<String>,
}

impl KernelBuilder {
    /// Starts a kernel named `name`.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            frames: vec![Vec::new()],
            next_reg: 0,
            next_buf: 0,
            next_scalar: 0,
            shared_words: 0,
            error: None,
        }
    }

    /// Declares the next buffer parameter (order = launch argument order).
    pub fn buf_param(&mut self) -> BufSlot {
        let s = BufSlot(self.next_buf);
        self.next_buf += 1;
        s
    }

    /// Declares the next uniform scalar parameter.
    pub fn scalar_param(&mut self) -> Expr {
        let e = Expr::Param(self.next_scalar);
        self.next_scalar += 1;
        e
    }

    /// Reserves `words` of per-block shared memory; returns the base word
    /// index of the reservation.
    pub fn shared_alloc(&mut self, words: u32) -> u32 {
        let base = self.shared_words;
        self.shared_words += words;
        base
    }

    /// `blockIdx * blockDim + threadIdx`.
    pub fn global_thread_id(&self) -> Expr {
        Expr::Special(Special::GlobalThreadId)
    }

    /// `threadIdx`.
    pub fn thread_idx(&self) -> Expr {
        Expr::Special(Special::ThreadIdx)
    }

    /// `blockIdx`.
    pub fn block_idx(&self) -> Expr {
        Expr::Special(Special::BlockIdx)
    }

    /// `blockDim`.
    pub fn block_dim(&self) -> Expr {
        Expr::Special(Special::BlockDim)
    }

    /// `gridDim`.
    pub fn grid_dim(&self) -> Expr {
        Expr::Special(Special::GridDim)
    }

    /// Lane index within the warp.
    pub fn lane_id(&self) -> Expr {
        Expr::Special(Special::LaneId)
    }

    /// Allocates a fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, s: Stmt) {
        self.frames
            .last_mut()
            .expect("frame stack never empty")
            .push(s);
    }

    /// Emits `dst = expr`.
    pub fn assign(&mut self, dst: Reg, e: impl Into<Expr>) {
        self.emit(Stmt::Assign(dst, e.into()));
    }

    /// Evaluates `e` into a fresh register and returns it.
    pub fn let_(&mut self, e: impl Into<Expr>) -> Reg {
        let r = self.reg();
        self.assign(r, e);
        r
    }

    /// Emits a global load; returns the destination register as an
    /// expression.
    pub fn load(&mut self, buf: BufSlot, index: impl Into<Expr>) -> Expr {
        let dst = self.reg();
        self.emit(Stmt::Load {
            dst,
            buf,
            index: index.into(),
        });
        Expr::Reg(dst)
    }

    /// Emits a global store.
    pub fn store(&mut self, buf: BufSlot, index: impl Into<Expr>, value: impl Into<Expr>) {
        self.emit(Stmt::Store {
            buf,
            index: index.into(),
            value: value.into(),
        });
    }

    fn atomic(
        &mut self,
        op: AtomicOp,
        buf: BufSlot,
        index: Expr,
        value: Expr,
        compare: Option<Expr>,
    ) -> Expr {
        let old = self.reg();
        self.emit(Stmt::Atomic {
            op,
            buf,
            index,
            value,
            compare,
            old: Some(old),
        });
        Expr::Reg(old)
    }

    /// `old = atomicAdd(&buf[index], value)`.
    pub fn atomic_add(
        &mut self,
        buf: BufSlot,
        index: impl Into<Expr>,
        value: impl Into<Expr>,
    ) -> Expr {
        self.atomic(AtomicOp::Add, buf, index.into(), value.into(), None)
    }

    /// `old = atomicMin(&buf[index], value)`.
    pub fn atomic_min(
        &mut self,
        buf: BufSlot,
        index: impl Into<Expr>,
        value: impl Into<Expr>,
    ) -> Expr {
        self.atomic(AtomicOp::Min, buf, index.into(), value.into(), None)
    }

    /// `old = atomicMax(&buf[index], value)`.
    pub fn atomic_max(
        &mut self,
        buf: BufSlot,
        index: impl Into<Expr>,
        value: impl Into<Expr>,
    ) -> Expr {
        self.atomic(AtomicOp::Max, buf, index.into(), value.into(), None)
    }

    /// `old = atomicExch(&buf[index], value)`.
    pub fn atomic_exch(
        &mut self,
        buf: BufSlot,
        index: impl Into<Expr>,
        value: impl Into<Expr>,
    ) -> Expr {
        self.atomic(AtomicOp::Exch, buf, index.into(), value.into(), None)
    }

    /// `old = atomicAdd((float*)&buf[index], value)` on bit-reinterpreted
    /// f32 words.
    pub fn atomic_fadd(
        &mut self,
        buf: BufSlot,
        index: impl Into<Expr>,
        value: impl Into<Expr>,
    ) -> Expr {
        self.atomic(AtomicOp::FAdd, buf, index.into(), value.into(), None)
    }

    /// `old = atomicCAS(&buf[index], compare, value)`.
    pub fn atomic_cas(
        &mut self,
        buf: BufSlot,
        index: impl Into<Expr>,
        compare: impl Into<Expr>,
        value: impl Into<Expr>,
    ) -> Expr {
        self.atomic(
            AtomicOp::Cas,
            buf,
            index.into(),
            value.into(),
            Some(compare.into()),
        )
    }

    /// Shared memory load.
    pub fn shared_load(&mut self, index: impl Into<Expr>) -> Expr {
        let dst = self.reg();
        self.emit(Stmt::SharedLoad {
            dst,
            index: index.into(),
        });
        Expr::Reg(dst)
    }

    /// Shared memory store.
    pub fn shared_store(&mut self, index: impl Into<Expr>, value: impl Into<Expr>) {
        self.emit(Stmt::SharedStore {
            index: index.into(),
            value: value.into(),
        });
    }

    /// One-sided branch.
    pub fn if_(&mut self, cond: impl Into<Expr>, then_: impl FnOnce(&mut Self)) {
        self.frames.push(Vec::new());
        then_(self);
        let body = self.frames.pop().expect("matching frame");
        self.emit(Stmt::If {
            cond: cond.into(),
            then_: body,
            else_: Vec::new(),
        });
    }

    /// Two-sided branch.
    pub fn if_else(
        &mut self,
        cond: impl Into<Expr>,
        then_: impl FnOnce(&mut Self),
        else_: impl FnOnce(&mut Self),
    ) {
        self.frames.push(Vec::new());
        then_(self);
        let t = self.frames.pop().expect("matching frame");
        self.frames.push(Vec::new());
        else_(self);
        let e = self.frames.pop().expect("matching frame");
        self.emit(Stmt::If {
            cond: cond.into(),
            then_: t,
            else_: e,
        });
    }

    /// Loop while `cond` holds per lane.
    pub fn while_(&mut self, cond: impl Into<Expr>, body: impl FnOnce(&mut Self)) {
        self.frames.push(Vec::new());
        body(self);
        let b = self.frames.pop().expect("matching frame");
        self.emit(Stmt::While {
            cond: cond.into(),
            body: b,
        });
    }

    /// Early exit for the executing lanes.
    pub fn ret(&mut self) {
        self.emit(Stmt::Return);
    }

    /// `__syncthreads()` cost marker.
    pub fn sync_threads(&mut self) {
        self.emit(Stmt::SyncThreads);
    }

    fn barrier(&mut self, op: BarrierOp, value: Expr) -> Expr {
        if self.frames.len() != 1 {
            self.error = Some(format!(
                "kernel '{}': barrier intrinsic {:?} inside control flow",
                self.name, op
            ));
        }
        let dst = self.reg();
        self.emit(Stmt::Barrier { op, value, dst });
        Expr::Reg(dst)
    }

    /// Block-wide minimum of `value` (every lane receives the result).
    pub fn block_reduce_min(&mut self, value: impl Into<Expr>) -> Expr {
        self.barrier(BarrierOp::ReduceMin, value.into())
    }

    /// Block-wide sum of `value`.
    pub fn block_reduce_add(&mut self, value: impl Into<Expr>) -> Expr {
        self.barrier(BarrierOp::ReduceAdd, value.into())
    }

    /// Block-wide exclusive prefix sum of `value` in lane order.
    pub fn block_scan_excl_add(&mut self, value: impl Into<Expr>) -> Expr {
        self.barrier(BarrierOp::ScanExclAdd, value.into())
    }

    /// Finalizes and validates the kernel.
    pub fn build(mut self) -> Result<Kernel, SimError> {
        if let Some(e) = self.error.take() {
            return Err(SimError::InvalidKernel { detail: e });
        }
        assert_eq!(self.frames.len(), 1, "unbalanced control-flow frames");
        let k = Kernel {
            name: self.name,
            body: self.frames.pop().unwrap(),
            num_regs: self.next_reg,
            num_bufs: self.next_buf,
            num_scalars: self.next_scalar,
            shared_words: self.shared_words,
            compiled: OnceLock::new(),
        };
        k.validate()?;
        Ok(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_kernel() {
        let mut k = KernelBuilder::new("t");
        let buf = k.buf_param();
        let n = k.scalar_param();
        let tid = k.global_thread_id();
        k.if_(tid.clone().lt(n), |k| {
            let v = k.load(buf, tid.clone());
            k.store(buf, tid.clone(), v.add(1u32));
        });
        let kernel = k.build().unwrap();
        assert_eq!(kernel.num_bufs, 1);
        assert_eq!(kernel.num_scalars, 1);
        assert_eq!(kernel.body.len(), 1);
        assert!(kernel.num_regs >= 1);
    }

    #[test]
    fn rejects_barrier_inside_control_flow() {
        let mut k = KernelBuilder::new("bad");
        k.if_(Expr::imm(1), |k| {
            k.block_reduce_min(Expr::imm(0));
        });
        assert!(matches!(k.build(), Err(SimError::InvalidKernel { .. })));
    }

    #[test]
    fn top_level_barrier_is_fine_and_phase_splits() {
        let mut k = KernelBuilder::new("ok");
        let r = k.let_(Expr::imm(5));
        let m = k.block_reduce_min(r);
        let _ = k.let_(m);
        let kernel = k.build().unwrap();
        let phases = kernel.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0.len(), 1);
        assert!(phases[0].1.is_some());
        assert_eq!(phases[1].0.len(), 1);
        assert!(phases[1].1.is_none());
    }

    #[test]
    fn validate_catches_out_of_range_slots() {
        let k = Kernel {
            name: "handmade".into(),
            body: vec![Stmt::Load {
                dst: Reg(0),
                buf: BufSlot(2),
                index: Expr::imm(0),
            }],
            num_regs: 1,
            num_bufs: 1,
            num_scalars: 0,
            shared_words: 0,
            compiled: OnceLock::new(),
        };
        assert!(matches!(k.validate(), Err(SimError::InvalidKernel { .. })));

        let k = Kernel {
            name: "handmade2".into(),
            body: vec![Stmt::Assign(Reg(5), Expr::imm(0))],
            num_regs: 1,
            num_bufs: 0,
            num_scalars: 0,
            shared_words: 0,
            compiled: OnceLock::new(),
        };
        assert!(matches!(k.validate(), Err(SimError::InvalidKernel { .. })));

        let k = Kernel {
            name: "handmade3".into(),
            body: vec![Stmt::Assign(Reg(0), Expr::Param(3))],
            num_regs: 1,
            num_bufs: 0,
            num_scalars: 1,
            shared_words: 0,
            compiled: OnceLock::new(),
        };
        assert!(matches!(k.validate(), Err(SimError::InvalidKernel { .. })));
    }

    #[test]
    fn validate_rejects_hand_nested_barrier() {
        let k = Kernel {
            name: "nested".into(),
            body: vec![Stmt::If {
                cond: Expr::imm(1),
                then_: vec![Stmt::Barrier {
                    op: BarrierOp::ReduceAdd,
                    value: Expr::imm(0),
                    dst: Reg(0),
                }],
                else_: vec![],
            }],
            num_regs: 1,
            num_bufs: 0,
            num_scalars: 0,
            shared_words: 0,
            compiled: OnceLock::new(),
        };
        assert!(matches!(k.validate(), Err(SimError::InvalidKernel { .. })));
    }

    #[test]
    fn shared_alloc_accumulates() {
        let mut k = KernelBuilder::new("sh");
        assert_eq!(k.shared_alloc(16), 0);
        assert_eq!(k.shared_alloc(8), 16);
        let kernel = k.build().unwrap();
        assert_eq!(kernel.shared_words, 24);
    }
}
