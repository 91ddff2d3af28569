//! The warp-synchronous tree-walking interpreter, kept as the
//! differential *oracle* for the bytecode engine (`exec/bytecode.rs`).
//!
//! One block executes as `ceil(block_dim / 32)` warps. Within a phase
//! (a top-level segment between barrier intrinsics) warps run to
//! completion one after another; *within* a warp all lanes step through
//! each statement together under an active-lane mask. Divergence, memory
//! coalescing, atomic serialization, and bank conflicts are measured on
//! the fly and accumulated into a [`BlockCost`].
//!
//! This module is compiled only under `cfg(test)` or the `interp-oracle`
//! feature; production launches run on the bytecode engine, whose
//! timed driver reproduces this interpreter's costs and race stream
//! bit-identically (enforced by the equivalence property tests).

use crate::error::SimError;
use crate::exec::grid::GridCtx;
use crate::ir::expr::{apply_binop, apply_unop, Expr, Special};
use crate::ir::stmt::{AtomicOp, BarrierOp, Stmt};
use crate::mem::coalesce::transactions_for;
use crate::mem::race::{AccessKind, AccessRecord, RaceLog, SHARED_SLOT};
use crate::mem::shared::bank_conflict_replays;
use crate::timing::cost::BlockCost;
use std::sync::atomic::Ordering;

const WARP: u32 = 32;
const FULL_MASK: u32 = u32::MAX;

/// Reusable per-worker scratch space, so running millions of small blocks
/// does not allocate per block.
#[derive(Default)]
pub struct Scratch {
    regs: Vec<u32>,
    shared: Vec<u32>,
    returned: Vec<u32>,
    /// Per-warp barrier epoch (race detection's happens-before clock).
    epochs: Vec<u32>,
    /// Per-warp dynamic statement counter (race detection).
    seqs: Vec<u32>,
}

/// Per-warp mutable view during statement execution.
struct WarpCtx<'a, 'g> {
    g: &'a GridCtx<'g>,
    block_idx: u32,
    /// Thread index of lane 0 within the block.
    warp_base: u32,
    /// This warp's registers, `num_regs * 32`, lane-minor.
    regs: &'a mut [u32],
    /// The block's shared memory.
    shared: &'a mut [u32],
    /// Lanes that executed `Return`.
    returned: &'a mut u32,
    cost: &'a mut BlockCost,
    /// This warp's barrier epoch (bumped at `sync_threads` and barriers).
    epoch: &'a mut u32,
    /// This warp's dynamic statement counter.
    seq: &'a mut u32,
    /// Access log when race detection is enabled (every access: the
    /// interpreter is the full-log oracle for the bytecode engine's
    /// filtered log).
    log: Option<&'a mut RaceLog>,
}

impl<'a, 'g> WarpCtx<'a, 'g> {
    #[inline]
    fn reg(&self, r: u16, lane: u32) -> u32 {
        self.regs[r as usize * WARP as usize + lane as usize]
    }

    #[inline]
    fn set_reg(&mut self, r: u16, lane: u32, v: u32) {
        self.regs[r as usize * WARP as usize + lane as usize] = v;
    }

    fn eval(&self, e: &Expr, lane: u32) -> Result<u32, SimError> {
        Ok(match e {
            Expr::Imm(v) => *v,
            Expr::Reg(r) => self.reg(r.0, lane),
            Expr::Param(p) => self.g.scalars[*p as usize],
            Expr::Special(s) => {
                let thread_idx = self.warp_base + lane;
                match s {
                    Special::ThreadIdx => thread_idx,
                    Special::BlockIdx => self.block_idx,
                    Special::BlockDim => self.g.block_dim,
                    Special::GridDim => self.g.grid_dim,
                    Special::LaneId => lane,
                    Special::GlobalThreadId => self
                        .block_idx
                        .wrapping_mul(self.g.block_dim)
                        .wrapping_add(thread_idx),
                }
            }
            Expr::Unop(op, a) => apply_unop(*op, self.eval(a, lane)?),
            Expr::Binop(op, a, b) => {
                let (x, y) = (self.eval(a, lane)?, self.eval(b, lane)?);
                apply_binop(*op, x, y).ok_or_else(|| SimError::DivisionByZero {
                    kernel: self.g.kernel.name.clone(),
                })?
            }
            Expr::Select(c, a, b) => {
                if self.eval(c, lane)? != 0 {
                    self.eval(a, lane)?
                } else {
                    self.eval(b, lane)?
                }
            }
        })
    }

    /// Charges issue slots for executing a statement whose expressions
    /// contain `expr_ops` operator nodes, with `mask` lanes active.
    #[inline]
    fn charge(&mut self, expr_ops: u64, mask: u32) {
        let ops = 1 + expr_ops;
        self.cost.issue_cycles += ops;
        self.cost.stats.instructions += ops;
        self.cost.stats.active_lane_instructions += ops * mask.count_ones() as u64;
    }

    /// Appends one access to the race log, if detection is enabled.
    #[inline]
    fn log_access(&mut self, buf: u16, word: u32, kind: AccessKind, value: u32) {
        let (block, warp, epoch, seq) = (
            self.block_idx,
            self.warp_base / WARP,
            *self.epoch,
            *self.seq,
        );
        if let Some(log) = self.log.as_deref_mut() {
            log.push(AccessRecord {
                buf,
                word,
                kind,
                value,
                block,
                warp,
                epoch,
                seq,
            });
        }
    }

    fn oob(&self, buf_slot: u8, index: u64) -> SimError {
        SimError::OutOfBounds {
            kernel: self.g.kernel.name.clone(),
            buffer: self.g.bufs[buf_slot as usize].label.clone(),
            index,
            len: self.g.bufs[buf_slot as usize].data.len(),
        }
    }

    /// Collects byte addresses for the active lanes of a global access and
    /// charges coalesced transactions. Returns per-lane word indices in
    /// `idxs` (parallel to lane numbers; inactive lanes untouched).
    fn global_indices(
        &mut self,
        buf_slot: u8,
        index: &Expr,
        mask: u32,
        idxs: &mut [u32; 32],
    ) -> Result<u32, SimError> {
        let buf = self.g.bufs[buf_slot as usize];
        let len = buf.data.len();
        let mut addrs = [0u64; 32];
        let mut n = 0usize;
        for lane in 0..WARP {
            if mask & (1 << lane) != 0 {
                let i = self.eval(index, lane)?;
                if (i as usize) >= len {
                    return Err(self.oob(buf_slot, i as u64));
                }
                idxs[lane as usize] = i;
                // Buffer id in the high bits keeps distinct buffers in
                // distinct segments.
                addrs[n] = ((buf_slot as u64) << 40) | (i as u64 * 4);
                n += 1;
            }
        }
        let tx = transactions_for(&addrs[..n], self.g.cfg.transaction_bytes);
        self.cost.stats.mem_transactions += tx as u64;
        self.cost.stats.mem_bytes += tx as u64 * self.g.cfg.transaction_bytes as u64;
        self.cost.issue_cycles += tx as u64 * self.g.cfg.mem_issue_cycles;
        Ok(tx)
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], mask_in: u32) -> Result<(), SimError> {
        for s in stmts {
            let mask = mask_in & !*self.returned;
            if mask == 0 {
                return Ok(());
            }
            self.exec_stmt(s, mask)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, mask: u32) -> Result<(), SimError> {
        *self.seq = self.seq.wrapping_add(1);
        match s {
            Stmt::Assign(dst, e) => {
                self.charge(e.op_count(), mask);
                for lane in 0..WARP {
                    if mask & (1 << lane) != 0 {
                        let v = self.eval(e, lane)?;
                        self.set_reg(dst.0, lane, v);
                    }
                }
            }
            Stmt::Load { dst, buf, index } => {
                self.charge(index.op_count(), mask);
                self.cost.stats.loads += 1;
                let mut idxs = [0u32; 32];
                self.global_indices(buf.0, index, mask, &mut idxs)?;
                self.cost.stall_cycles += self.g.cfg.mem_latency_cycles;
                let b = self.g.bufs[buf.0 as usize];
                for lane in 0..WARP {
                    if mask & (1 << lane) != 0 {
                        let v = b.data[idxs[lane as usize] as usize].load(Ordering::Relaxed);
                        self.set_reg(dst.0, lane, v);
                        if self.log.is_some() {
                            self.log_access(buf.0 as u16, idxs[lane as usize], AccessKind::Read, 0);
                        }
                    }
                }
            }
            Stmt::Store { buf, index, value } => {
                self.charge(index.op_count() + value.op_count(), mask);
                self.cost.stats.stores += 1;
                let mut idxs = [0u32; 32];
                self.global_indices(buf.0, index, mask, &mut idxs)?;
                let b = self.g.bufs[buf.0 as usize];
                for lane in 0..WARP {
                    if mask & (1 << lane) != 0 {
                        let v = self.eval(value, lane)?;
                        b.data[idxs[lane as usize] as usize].store(v, Ordering::Relaxed);
                        if self.log.is_some() {
                            self.log_access(
                                buf.0 as u16,
                                idxs[lane as usize],
                                AccessKind::Write,
                                v,
                            );
                        }
                    }
                }
            }
            Stmt::Atomic {
                op,
                buf,
                index,
                value,
                compare,
                old,
            } => {
                let ops = index.op_count()
                    + value.op_count()
                    + compare.as_ref().map_or(0, |c| c.op_count());
                self.charge(ops, mask);
                let bslot = buf.0;
                let blen = self.g.bufs[bslot as usize].data.len();
                // Evaluate operands, apply lane by lane (hardware order is
                // unspecified; ascending lane order is our deterministic
                // choice), and measure address conflicts.
                let mut sorted_idx = [0u32; 32];
                let mut n = 0usize;
                for lane in 0..WARP {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let i = self.eval(index, lane)?;
                    if (i as usize) >= blen {
                        return Err(self.oob(bslot, i as u64));
                    }
                    let v = self.eval(value, lane)?;
                    let cell = &self.g.bufs[bslot as usize].data[i as usize];
                    let prev = match op {
                        AtomicOp::Add => cell.fetch_add(v, Ordering::Relaxed),
                        AtomicOp::Min => cell.fetch_min(v, Ordering::Relaxed),
                        AtomicOp::Max => cell.fetch_max(v, Ordering::Relaxed),
                        AtomicOp::Exch => cell.swap(v, Ordering::Relaxed),
                        AtomicOp::FAdd => {
                            let mut prev = cell.load(Ordering::Relaxed);
                            loop {
                                let next = (f32::from_bits(prev) + f32::from_bits(v)).to_bits();
                                match cell.compare_exchange_weak(
                                    prev,
                                    next,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => break prev,
                                    Err(p) => prev = p,
                                }
                            }
                        }
                        AtomicOp::Cas => {
                            let cmp = self
                                .eval(compare.as_ref().expect("CAS carries a comparand"), lane)?;
                            match cell.compare_exchange(
                                cmp,
                                v,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            ) {
                                Ok(o) | Err(o) => o,
                            }
                        }
                    };
                    if let Some(dst) = old {
                        self.set_reg(dst.0, lane, prev);
                    }
                    if self.log.is_some() {
                        self.log_access(bslot as u16, i, AccessKind::Atomic, v);
                    }
                    sorted_idx[n] = i;
                    n += 1;
                }
                sorted_idx[..n].sort_unstable();
                let groups = {
                    let mut g = 0u64;
                    let mut prev = None;
                    for &i in &sorted_idx[..n] {
                        if Some(i) != prev {
                            g += 1;
                            prev = Some(i);
                        }
                    }
                    g
                };
                let conflicts = n as u64 - groups;
                self.cost.stats.atomics += n as u64;
                self.cost.stats.atomic_conflicts += conflicts;
                self.cost.stats.mem_bytes += n as u64 * 4;
                self.cost.issue_cycles += groups * self.g.cfg.atomic_issue_cycles
                    + conflicts * self.g.cfg.atomic_conflict_cycles;
                self.cost.stall_cycles += self.g.cfg.mem_latency_cycles;
            }
            Stmt::SharedLoad { dst, index } => {
                self.charge(index.op_count(), mask);
                self.cost.stats.shared_accesses += 1;
                let replays = self.shared_access(
                    index,
                    mask,
                    |w, lane, dst_reg, v| w.set_reg(dst_reg, lane, v),
                    Some(dst.0),
                    None,
                )?;
                self.cost.stats.shared_replays += replays as u64;
                self.cost.issue_cycles += replays as u64 * self.g.cfg.shared_conflict_cycles;
            }
            Stmt::SharedStore { index, value } => {
                self.charge(index.op_count() + value.op_count(), mask);
                self.cost.stats.shared_accesses += 1;
                let replays =
                    self.shared_access(index, mask, |_, _, _, _| {}, None, Some(value))?;
                self.cost.stats.shared_replays += replays as u64;
                self.cost.issue_cycles += replays as u64 * self.g.cfg.shared_conflict_cycles;
            }
            Stmt::If { cond, then_, else_ } => {
                self.charge(cond.op_count(), mask);
                let mut m_then = 0u32;
                for lane in 0..WARP {
                    if mask & (1 << lane) != 0 && self.eval(cond, lane)? != 0 {
                        m_then |= 1 << lane;
                    }
                }
                let m_else = mask & !m_then;
                if m_then != 0 && m_else != 0 {
                    self.cost.stats.divergent_branches += 1;
                }
                if m_then != 0 {
                    self.exec_stmts(then_, m_then)?;
                }
                if m_else != 0 && !else_.is_empty() {
                    self.exec_stmts(else_, m_else)?;
                }
            }
            Stmt::While { cond, body } => {
                let mut live = mask;
                let mut first = true;
                loop {
                    live &= !*self.returned;
                    self.charge(cond.op_count(), live);
                    let mut m = 0u32;
                    for lane in 0..WARP {
                        if live & (1 << lane) != 0 && self.eval(cond, lane)? != 0 {
                            m |= 1 << lane;
                        }
                    }
                    if !first && m != live && m != 0 {
                        // some lanes left while others loop on: divergence
                        self.cost.stats.divergent_branches += 1;
                    }
                    first = false;
                    live = m;
                    if live == 0 {
                        break;
                    }
                    self.exec_stmts(body, live)?;
                }
            }
            Stmt::Return => {
                self.charge(0, mask);
                *self.returned |= mask;
            }
            Stmt::SyncThreads => {
                self.charge(0, mask);
                self.cost.stats.syncs += 1;
                self.cost.issue_cycles += self.g.cfg.sync_cycles;
                // Happens-before edge: everything this warp did before the
                // sync is ordered before everything any warp does after it.
                // All warps execute the same top-level sync, so their
                // epochs advance in lockstep.
                *self.epoch += 1;
            }
            Stmt::Barrier { .. } => {
                unreachable!("barriers are phase-split before warp execution")
            }
        }
        Ok(())
    }

    /// Shared memory access helper: evaluates indices, bounds-checks,
    /// performs the load (via `sink`) or store (via `value`), and returns
    /// the bank-conflict replay count.
    fn shared_access(
        &mut self,
        index: &Expr,
        mask: u32,
        sink: impl Fn(&mut Self, u32, u16, u32),
        load_dst: Option<u16>,
        value: Option<&Expr>,
    ) -> Result<u32, SimError> {
        let len = self.shared.len();
        let mut words = [0u64; 32];
        let mut lanes = [0u32; 32];
        let mut n = 0usize;
        for lane in 0..WARP {
            if mask & (1 << lane) != 0 {
                let i = self.eval(index, lane)?;
                if (i as usize) >= len {
                    return Err(SimError::SharedOutOfBounds {
                        kernel: self.g.kernel.name.clone(),
                        index: i as u64,
                        len,
                    });
                }
                words[n] = i as u64;
                lanes[n] = lane;
                n += 1;
            }
        }
        let replays = bank_conflict_replays(&words[..n], 32);
        for k in 0..n {
            let (lane, word) = (lanes[k], words[k] as usize);
            if let Some(dst) = load_dst {
                let v = self.shared[word];
                sink(self, lane, dst, v);
                if self.log.is_some() {
                    self.log_access(SHARED_SLOT, word as u32, AccessKind::Read, 0);
                }
            } else if let Some(val) = value {
                let v = self.eval(val, lane)?;
                self.shared[word] = v;
                if self.log.is_some() {
                    self.log_access(SHARED_SLOT, word as u32, AccessKind::Write, v);
                }
            }
        }
        Ok(replays)
    }
}

/// Executes one block of the launch, reusing `scratch` between calls.
/// `log` collects every per-word access record when race detection is on.
pub(crate) fn run_block(
    g: &GridCtx<'_>,
    block_idx: u32,
    scratch: &mut Scratch,
    mut log: Option<&mut RaceLog>,
) -> Result<BlockCost, SimError> {
    let kernel = g.kernel;
    let warps = g.cfg.warps_for(g.block_dim).max(1);
    let regs_len = kernel.num_regs as usize * WARP as usize * warps as usize;
    scratch.regs.clear();
    scratch.regs.resize(regs_len, 0);
    scratch.shared.clear();
    scratch.shared.resize(kernel.shared_words as usize, 0);
    scratch.returned.clear();
    scratch.returned.resize(warps as usize, 0);
    scratch.epochs.clear();
    scratch.epochs.resize(warps as usize, 0);
    scratch.seqs.clear();
    scratch.seqs.resize(warps as usize, 0);

    let mut cost = BlockCost::default();
    let phases = kernel.phases();
    let regs_per_warp = kernel.num_regs as usize * WARP as usize;

    for (segment, barrier) in phases {
        for w in 0..warps {
            let warp_base = w * WARP;
            let lanes_in_warp = (g.block_dim.saturating_sub(warp_base)).min(WARP);
            if lanes_in_warp == 0 {
                continue;
            }
            let init_mask = if lanes_in_warp == WARP {
                FULL_MASK
            } else {
                (1u32 << lanes_in_warp) - 1
            };
            let (regs, shared, returned) = (
                &mut scratch.regs[w as usize * regs_per_warp..(w as usize + 1) * regs_per_warp],
                &mut scratch.shared,
                &mut scratch.returned[w as usize],
            );
            let mut ctx = WarpCtx {
                g,
                block_idx,
                warp_base,
                regs,
                shared,
                returned,
                cost: &mut cost,
                epoch: &mut scratch.epochs[w as usize],
                seq: &mut scratch.seqs[w as usize],
                log: log.as_deref_mut(),
            };
            ctx.exec_stmts(segment, init_mask)?;
        }
        if let Some(Stmt::Barrier { op, value, dst }) = barrier {
            apply_barrier(g, block_idx, *op, value, dst.0, scratch, warps, &mut cost)?;
            // A block-wide collective synchronizes all warps: re-align the
            // epochs past the highest any warp reached (warps that
            // returned early skipped their in-segment syncs).
            let next = scratch.epochs.iter().copied().max().unwrap_or(0) + 1;
            scratch.epochs.iter_mut().for_each(|e| *e = next);
        }
    }
    Ok(cost)
}

/// Applies a block-wide collective across all warps' live lanes.
#[allow(clippy::too_many_arguments)]
fn apply_barrier(
    g: &GridCtx<'_>,
    block_idx: u32,
    op: BarrierOp,
    value: &Expr,
    dst: u16,
    scratch: &mut Scratch,
    warps: u32,
    cost: &mut BlockCost,
) -> Result<(), SimError> {
    let regs_per_warp = g.kernel.num_regs as usize * WARP as usize;
    // Gather contributions in thread order.
    let mut contributions: Vec<(u32, u32, u32)> = Vec::with_capacity(g.block_dim as usize);
    for w in 0..warps {
        let warp_base = w * WARP;
        let lanes_in_warp = (g.block_dim.saturating_sub(warp_base)).min(WARP);
        let returned = scratch.returned[w as usize];
        for lane in 0..lanes_in_warp {
            let alive = returned & (1 << lane) == 0;
            let (regs, shared) = (
                &mut scratch.regs[w as usize * regs_per_warp..(w as usize + 1) * regs_per_warp],
                &mut scratch.shared,
            );
            let mut ret = returned;
            let mut throwaway = BlockCost::default();
            let (mut epoch0, mut seq0) = (0u32, 0u32);
            let ctx = WarpCtx {
                g,
                block_idx,
                warp_base,
                regs,
                shared,
                returned: &mut ret,
                cost: &mut throwaway,
                epoch: &mut epoch0,
                seq: &mut seq0,
                log: None,
            };
            let v = if alive {
                ctx.eval(value, lane)?
            } else {
                match op {
                    BarrierOp::ReduceMin => u32::MAX,
                    BarrierOp::ReduceAdd | BarrierOp::ScanExclAdd => 0,
                }
            };
            contributions.push((w, lane, v));
        }
    }
    // Compute per-thread results.
    let results: Vec<u32> = match op {
        BarrierOp::ReduceMin => {
            let m = contributions
                .iter()
                .map(|&(_, _, v)| v)
                .min()
                .unwrap_or(u32::MAX);
            vec![m; contributions.len()]
        }
        BarrierOp::ReduceAdd => {
            let s = contributions
                .iter()
                .fold(0u32, |a, &(_, _, v)| a.wrapping_add(v));
            vec![s; contributions.len()]
        }
        BarrierOp::ScanExclAdd => {
            let mut acc = 0u32;
            contributions
                .iter()
                .map(|&(_, _, v)| {
                    let out = acc;
                    acc = acc.wrapping_add(v);
                    out
                })
                .collect()
        }
    };
    for (&(w, lane, _), &r) in contributions.iter().zip(&results) {
        let base = w as usize * regs_per_warp;
        scratch.regs[base + dst as usize * WARP as usize + lane as usize] = r;
    }
    // Analytic cost: a log-depth shared-memory tree with a sync per level,
    // issued once per warp per level (what a hand-written reduction costs).
    let levels = (32 - (g.block_dim.max(2) - 1).leading_zeros()) as u64;
    let per_level = warps as u64 * 3 + g.cfg.sync_cycles;
    cost.issue_cycles += levels * per_level;
    cost.stats.barriers += 1;
    cost.stats.instructions += levels * warps as u64 * 3;
    cost.stats.active_lane_instructions += levels * warps as u64 * 3 * WARP as u64 / 2;
    cost.stats.syncs += levels;
    cost.stats.shared_accesses += levels * warps as u64 * 2;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::ir::builder::{Kernel, KernelBuilder};
    use crate::mem::global::GlobalMemory;

    fn ctx_and_run(
        kernel: &Kernel,
        mem: &GlobalMemory,
        bufs: &[crate::mem::global::DevicePtr],
        scalars: &[u32],
        grid_dim: u32,
        block_dim: u32,
    ) -> Result<Vec<BlockCost>, SimError> {
        let cfg = DeviceConfig::tesla_c2070();
        let g = GridCtx {
            cfg: &cfg,
            kernel,
            bufs: bufs.iter().map(|&p| mem.buffer(p).unwrap()).collect(),
            scalars,
            grid_dim,
            block_dim,
        };
        let mut scratch = Scratch::default();
        (0..grid_dim)
            .map(|b| run_block(&g, b, &mut scratch, None))
            .collect()
    }

    #[test]
    fn assign_and_store_roundtrip() {
        let mut k = KernelBuilder::new("t");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        k.store(out, tid.clone(), tid.clone().mul(3u32));
        let kernel = k.build().unwrap();

        let mut mem = GlobalMemory::new();
        let p = mem.alloc("out", 64);
        ctx_and_run(&kernel, &mem, &[p], &[], 2, 32).unwrap();
        let v = mem.read(p).unwrap();
        assert_eq!(v[0], 0);
        assert_eq!(v[10], 30);
        assert_eq!(v[63], 189);
    }

    #[test]
    fn divergent_if_executes_both_paths_and_counts() {
        // even lanes write 1, odd lanes write 2
        let mut k = KernelBuilder::new("div");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        k.if_else(
            tid.clone().rem(2u32).eq(0u32),
            |k| k.store(out, tid.clone(), 1u32),
            |k| k.store(out, tid.clone(), 2u32),
        );
        let kernel = k.build().unwrap();

        let mut mem = GlobalMemory::new();
        let p = mem.alloc("out", 32);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        let v = mem.read(p).unwrap();
        assert!(v.iter().step_by(2).all(|&x| x == 1));
        assert!(v.iter().skip(1).step_by(2).all(|&x| x == 2));
        assert_eq!(costs[0].stats.divergent_branches, 1);
        assert_eq!(costs[0].stats.stores, 2); // both sides issued
    }

    #[test]
    fn uniform_if_takes_one_path() {
        let mut k = KernelBuilder::new("uni");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        k.if_else(
            Expr::imm(1),
            |k| k.store(out, tid.clone(), 7u32),
            |k| k.store(out, tid.clone(), 9u32),
        );
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("out", 32);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        assert_eq!(costs[0].stats.divergent_branches, 0);
        assert_eq!(costs[0].stats.stores, 1);
        assert!(mem.read(p).unwrap().iter().all(|&x| x == 7));
    }

    #[test]
    fn while_runs_to_slowest_lane() {
        // lane i increments a counter i times; warp pays max iterations.
        let mut k = KernelBuilder::new("w");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        let i = k.let_(0u32);
        k.while_(Expr::Reg(i).lt(tid.clone()), |k| {
            k.assign(i, Expr::Reg(i).add(1u32));
        });
        k.store(out, tid.clone(), i);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("out", 32);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        let v = mem.read(p).unwrap();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
        // 31 iterations of (cond + body) issued at warp level at least.
        assert!(costs[0].stats.instructions >= 31 * 2);
        assert!(costs[0].stats.divergent_branches >= 1);
    }

    #[test]
    fn return_deactivates_lanes() {
        let mut k = KernelBuilder::new("r");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        k.if_(tid.clone().ge(16u32), |k| k.ret());
        k.store(out, tid.clone(), 5u32);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("out", 32);
        ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        let v = mem.read(p).unwrap();
        assert!(v[..16].iter().all(|&x| x == 5));
        assert!(v[16..].iter().all(|&x| x == 0));
    }

    #[test]
    fn coalesced_vs_scattered_loads() {
        // contiguous: out[tid] = in[tid]
        let mut k = KernelBuilder::new("co");
        let (inp, out) = (k.buf_param(), k.buf_param());
        let tid = k.global_thread_id();
        let v = k.load(inp, tid.clone());
        k.store(out, tid.clone(), v);
        let contiguous = k.build().unwrap();

        // scattered: out[tid] = in[tid * 64]
        let mut k = KernelBuilder::new("sc");
        let (inp, out) = (k.buf_param(), k.buf_param());
        let tid = k.global_thread_id();
        let v = k.load(inp, tid.clone().mul(64u32));
        k.store(out, tid.clone(), v);
        let scattered = k.build().unwrap();

        let mut mem = GlobalMemory::new();
        let big = mem.alloc("in", 64 * 32);
        let out1 = mem.alloc("o1", 32);
        let out2 = mem.alloc("o2", 32);
        let c1 = ctx_and_run(&contiguous, &mem, &[big, out1], &[], 1, 32).unwrap();
        let c2 = ctx_and_run(&scattered, &mem, &[big, out2], &[], 1, 32).unwrap();
        // contiguous: 1 tx for the load; scattered: 32.
        assert!(c2[0].stats.mem_transactions >= c1[0].stats.mem_transactions + 31);
        assert!(c2[0].stats.mem_bytes > c1[0].stats.mem_bytes * 10);
    }

    #[test]
    fn atomics_serialize_on_conflict_and_produce_correct_sum() {
        let mut k = KernelBuilder::new("at");
        let out = k.buf_param();
        k.atomic_add(out, 0u32, 1u32);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("ctr", 1);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 4, 32).unwrap();
        assert_eq!(mem.read_word(p, 0).unwrap(), 128);
        // all 32 lanes hit the same word: 31 conflicts per warp
        assert_eq!(costs[0].stats.atomic_conflicts, 31);
        assert_eq!(costs[0].stats.atomics, 32);
    }

    #[test]
    fn atomics_to_distinct_addresses_do_not_conflict() {
        let mut k = KernelBuilder::new("at2");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        k.atomic_add(out, tid.clone(), 1u32);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("c", 32);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        assert_eq!(costs[0].stats.atomic_conflicts, 0);
        assert_eq!(mem.read(p).unwrap(), vec![1; 32]);
    }

    #[test]
    fn atomic_cas_and_exch_return_old_values() {
        let mut k = KernelBuilder::new("cas");
        let (buf, out) = (k.buf_param(), k.buf_param());
        let lane = k.lane_id();
        // Only lane 0 active via guard.
        k.if_(lane.clone().eq(0u32), |k| {
            let old1 = k.atomic_cas(buf, 0u32, 7u32, 99u32); // matches -> swaps
            k.store(out, 0u32, old1);
            let old2 = k.atomic_cas(buf, 0u32, 7u32, 55u32); // no match
            k.store(out, 1u32, old2);
            let old3 = k.atomic_exch(buf, 0u32, 11u32);
            k.store(out, 2u32, old3);
        });
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let b = mem.alloc_from_slice("b", &[7]);
        let o = mem.alloc("o", 3);
        ctx_and_run(&kernel, &mem, &[b, o], &[], 1, 32).unwrap();
        assert_eq!(mem.read(o).unwrap(), vec![7, 99, 99]);
        assert_eq!(mem.read_word(b, 0).unwrap(), 11);
    }

    #[test]
    fn atomic_fadd_accumulates_floats_across_warps() {
        let mut k = KernelBuilder::new("fadd");
        let out = k.buf_param();
        k.atomic_fadd(out, 0u32, Expr::fimm(0.25));
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("acc", 1);
        ctx_and_run(&kernel, &mem, &[p], &[], 3, 64).unwrap();
        // 3 blocks x 64 threads x 0.25 = 48.0 (exact in binary fp)
        let bits = mem.read_word(p, 0).unwrap();
        assert_eq!(f32::from_bits(bits), 48.0);
    }

    #[test]
    fn float_expressions_flow_through_registers() {
        // out[tid] = bits( (tid as f32) * 1.5 + 0.5 )
        let mut k = KernelBuilder::new("fexpr");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        let f = tid
            .clone()
            .u2f()
            .fmul(Expr::fimm(1.5))
            .fadd(Expr::fimm(0.5));
        k.store(out, tid.clone(), f);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 8);
        ctx_and_run(&kernel, &mem, &[p], &[], 1, 8).unwrap();
        let v = mem.read(p).unwrap();
        for (i, &bits) in v.iter().enumerate() {
            assert_eq!(f32::from_bits(bits), i as f32 * 1.5 + 0.5);
        }
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let mut k = KernelBuilder::new("oob");
        let b = k.buf_param();
        let tid = k.global_thread_id();
        let v = k.load(b, tid.clone().add(100u32));
        k.store(b, 0u32, v);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("small", 4);
        let err = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut k = KernelBuilder::new("dz");
        let b = k.buf_param();
        let tid = k.global_thread_id();
        k.store(b, 0u32, Expr::imm(4).div(tid.clone()));
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("x", 1);
        let err = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap_err();
        assert!(matches!(err, SimError::DivisionByZero { .. }));
    }

    #[test]
    fn shared_memory_within_block() {
        // shared[tid] = tid; out[tid] = shared[31 - tid]
        let mut k = KernelBuilder::new("sh");
        let out = k.buf_param();
        let base = k.shared_alloc(32);
        let tid = k.thread_idx();
        k.shared_store(tid.clone().add(base), tid.clone());
        k.sync_threads();
        let v = k.shared_load(Expr::imm(31).sub(tid.clone()).add(base));
        k.store(out, tid.clone(), v);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 32);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        let v = mem.read(p).unwrap();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 31 - i as u32);
        }
        assert!(costs[0].stats.shared_accesses >= 2);
        assert_eq!(costs[0].stats.syncs, 1);
    }

    #[test]
    fn shared_out_of_bounds_traps() {
        let mut k = KernelBuilder::new("shoob");
        let _ = k.buf_param();
        k.shared_alloc(4);
        let tid = k.thread_idx();
        k.shared_store(tid.clone(), 1u32);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 1);
        let err = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap_err();
        assert!(matches!(err, SimError::SharedOutOfBounds { .. }));
    }

    #[test]
    fn block_reduce_min_spans_warps() {
        let mut k = KernelBuilder::new("rmin");
        let out = k.buf_param();
        let tid = k.thread_idx();
        let v = k.let_(Expr::imm(100).sub(tid.clone()));
        let m = k.block_reduce_min(v);
        k.store(out, tid.clone(), m);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 96);
        // one block of 96 threads = 3 warps; min = 100 - 95 = 5
        ctx_and_run(&kernel, &mem, &[p], &[], 1, 96).unwrap();
        assert!(mem.read(p).unwrap().iter().all(|&x| x == 5));
    }

    #[test]
    fn block_scan_excl_add_is_thread_ordered() {
        let mut k = KernelBuilder::new("scan");
        let out = k.buf_param();
        let tid = k.thread_idx();
        let s = k.block_scan_excl_add(1u32);
        k.store(out, tid.clone(), s);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 64);
        ctx_and_run(&kernel, &mem, &[p], &[], 1, 64).unwrap();
        let v = mem.read(p).unwrap();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
    }

    #[test]
    fn returned_lanes_contribute_identity_to_barrier() {
        let mut k = KernelBuilder::new("rbar");
        let out = k.buf_param();
        let tid = k.thread_idx();
        k.if_(tid.clone().ge(4u32), |k| k.ret());
        let m = k.block_reduce_min(tid.clone());
        k.store(out, tid.clone(), m);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc_filled("o", 32, 77);
        ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        let v = mem.read(p).unwrap();
        assert!(v[..4].iter().all(|&x| x == 0)); // min over lanes 0..4
        assert!(v[4..].iter().all(|&x| x == 77)); // returned lanes did not store
    }

    #[test]
    fn return_inside_while_deactivates_lane_for_rest_of_kernel() {
        // lanes loop until counter == lane; lane 5 returns inside the loop
        // and must not execute the final store.
        let mut k = KernelBuilder::new("ret-in-while");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        let i = k.let_(0u32);
        k.while_(Expr::Reg(i).lt(tid.clone()), |k| {
            k.if_(Expr::Reg(i).eq(4u32).and(tid.clone().eq(5u32)), |k| k.ret());
            k.assign(i, Expr::Reg(i).add(1u32));
        });
        k.store(out, tid.clone(), Expr::Reg(i).add(100u32));
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 8);
        ctx_and_run(&kernel, &mem, &[p], &[], 1, 8).unwrap();
        let v = mem.read(p).unwrap();
        for (lane, &x) in v.iter().enumerate() {
            if lane == 5 {
                assert_eq!(x, 0, "lane 5 returned, no store");
            } else {
                assert_eq!(x, lane as u32 + 100);
            }
        }
    }

    #[test]
    fn nested_divergence_restores_parent_masks() {
        // out[tid] = (tid < 16 ? (tid % 2 ? 1 : 2) : 3) + 10 for all lanes:
        // the trailing store must see the FULL mask again.
        let mut k = KernelBuilder::new("nested");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        let r = k.reg();
        k.if_else(
            tid.clone().lt(16u32),
            |k| {
                k.if_else(
                    tid.clone().rem(2u32).eq(1u32),
                    |k| k.assign(r, 1u32),
                    |k| k.assign(r, 2u32),
                );
            },
            |k| k.assign(r, 3u32),
        );
        k.store(out, tid.clone(), Expr::Reg(r).add(10u32));
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 32);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        let v = mem.read(p).unwrap();
        for (lane, &x) in v.iter().enumerate() {
            let expect = if lane < 16 {
                if lane % 2 == 1 {
                    11
                } else {
                    12
                }
            } else {
                13
            };
            assert_eq!(x, expect, "lane {lane}");
        }
        assert_eq!(costs[0].stats.divergent_branches, 2); // outer + inner
    }

    #[test]
    fn uniform_while_costs_less_than_divergent_while() {
        // uniform: every lane loops 16 times; divergent: lane i loops i times.
        // Same total lane-iterations? No — compare ISSUE cost where the
        // divergent warp pays full-warp issue slots for its longest lane.
        let build = |divergent: bool| {
            let mut k = KernelBuilder::new("w");
            let out = k.buf_param();
            let tid = k.global_thread_id();
            let i = k.let_(0u32);
            let bound = if divergent {
                tid.clone()
            } else {
                Expr::imm(31)
            };
            k.while_(Expr::Reg(i).lt(bound), |k| {
                k.assign(i, Expr::Reg(i).add(1u32));
            });
            k.store(out, tid.clone(), i);
            k.build().unwrap()
        };
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 32);
        let uniform = ctx_and_run(&build(false), &mem, &[p], &[], 1, 32).unwrap();
        let divergent = ctx_and_run(&build(true), &mem, &[p], &[], 1, 32).unwrap();
        // Divergent lanes do HALF the lane-work (avg 15.5 vs 31 iterations)
        // but issue the same number of warp instructions: its SIMT
        // efficiency must be visibly worse, issue cycles about equal.
        let eu = uniform[0].stats.simt_efficiency(32);
        let ed = divergent[0].stats.simt_efficiency(32);
        assert!(ed < 0.75 * eu, "divergent eff {ed} vs uniform {eu}");
        let ratio = divergent[0].issue_cycles as f64 / uniform[0].issue_cycles as f64;
        assert!((0.9..=1.1).contains(&ratio), "issue ratio {ratio}");
    }

    #[test]
    fn kernels_clone_equal_and_print_pseudo_code() {
        let mut k = KernelBuilder::new("clone");
        let b = k.buf_param();
        let n = k.scalar_param();
        let tid = k.global_thread_id();
        k.if_(tid.clone().lt(n), |k| {
            let v = k.load(b, tid.clone());
            k.store(b, tid.clone(), v.add(1u32));
        });
        let m = k.block_reduce_min(0u32);
        let _ = k.let_(m);
        let kernel = k.build().unwrap();
        // Clone + Eq walk the whole recursive IR.
        let cloned = kernel.clone();
        assert_eq!(kernel, cloned);
        assert!(kernel.to_pseudo_code().contains("blockReduceMin"));
    }

    #[test]
    fn select_is_predication_not_divergence() {
        let mut k = KernelBuilder::new("sel");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        k.store(out, tid.clone(), tid.clone().rem(2u32).select(7u32, 9u32));
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 32);
        let costs = ctx_and_run(&kernel, &mem, &[p], &[], 1, 32).unwrap();
        assert_eq!(costs[0].stats.divergent_branches, 0);
        let v = mem.read(p).unwrap();
        assert!(v
            .iter()
            .enumerate()
            .all(|(i, &x)| x == if i % 2 == 1 { 7 } else { 9 }));
    }

    #[test]
    fn partial_last_warp_masks_extra_lanes() {
        let mut k = KernelBuilder::new("partial");
        let out = k.buf_param();
        let tid = k.global_thread_id();
        k.store(out, tid.clone(), 1u32);
        let kernel = k.build().unwrap();
        let mut mem = GlobalMemory::new();
        let p = mem.alloc("o", 40);
        // 40 threads in one block: warp 1 has only 8 lanes.
        ctx_and_run(&kernel, &mem, &[p], &[], 1, 40).unwrap();
        assert_eq!(mem.read(p).unwrap(), vec![1; 40]);
    }
}
