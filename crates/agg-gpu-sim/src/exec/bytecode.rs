//! The bytecode execution engine: a flat, cache-friendly lowering of the
//! kernel IR, compiled once per [`Kernel`] and memoized.
//!
//! # Why
//!
//! The tree-walking interpreter (`exec/interp.rs`) re-traverses the
//! `Stmt`/`Expr` AST for every warp of every block — recursive dispatch,
//! pointer chasing through `Box`ed expression nodes, and re-evaluation of
//! loop-invariant leaves (immediates, params, specials) on every
//! statement. The bytecode engine removes all of that:
//!
//! * Statements and expressions are flattened into a linear op array per
//!   phase; execution is a `pc` loop over a dense `Vec<Op>`.
//! * Each warp gets a flat *virtual register file* (`num_vregs * 32`
//!   words, lane-minor). The kernel's IR registers occupy the first
//!   `num_regs` vregs at the same indices the interpreter uses; distinct
//!   `Imm`/`Param`/`Special` leaves are materialized once per warp by a
//!   cost-free prologue; flattened expression temporaries follow.
//! * Hot memory paths (global load/store/atomic with coalescing lookup,
//!   shared accesses with bank-conflict modeling) are dedicated opcodes
//!   that iterate active lanes with bit tricks instead of testing all 32.
//!
//! # Fidelity
//!
//! One op array serves two drivers selected by a const generic:
//!
//! * **timed** (`TIMED = true`) reproduces the interpreter's
//!   [`BlockCost`] stream *bit- and time-identically*: the same charge
//!   points, the same coalescing/bank-conflict/atomic-serialization
//!   accounting in the same order, the same divergence counting, and the
//!   same race-detection access log (epoch/seq happens-before clocks),
//!   minus the loads that cannot race (see [`RaceLog`]).
//! * **fast-functional** (`TIMED = false`) keeps the memory semantics —
//!   masks, `Return` deactivation, deterministic ascending-lane atomic
//!   order, bounds checks and traps, barrier collectives — but skips
//!   every cost, coalescing, occupancy, and race bookkeeping.
//!
//! The equivalence is enforced by the property tests at the bottom of
//! this file (micro-kernels) and by the full-suite tests in
//! `agg-kernels`/`agg-bench`, with the interpreter kept behind the
//! `interp-oracle` feature as the oracle.
//!
//! # Accepted divergences from the interpreter (trap paths only)
//!
//! Successful launches are bit-identical. When a launch *traps*, the
//! engines agree that it traps, but may differ in which fault is
//! reported when a single statement faults in two ways at once (e.g. an
//! out-of-bounds index on one lane and a division by zero on another):
//! the interpreter interleaves evaluation lane-by-lane, the bytecode
//! engine op-by-op. Partially completed stores before a trap may also
//! differ. Expressions where eager evaluation could *introduce* a trap
//! the interpreter would skip (a `Select` with `Div`/`Rem` in an arm)
//! are compiled to a lazy [`Op::EvalTree`] instead, so trap existence
//! never differs.

use crate::error::SimError;
use crate::ir::builder::Kernel;
use crate::ir::expr::{apply_binop, apply_unop, Binop, Expr, Special, Unop};
use crate::ir::stmt::{AtomicOp, BarrierOp, Stmt};
use crate::mem::coalesce::{transactions_for_words, PatternCache};
use crate::mem::global::Buffer;
use crate::mem::race::{AccessKind, AccessRecord, RaceLog, Writes, SHARED_SLOT};
use crate::mem::shared::bank_conflict_replays;
use crate::timing::cost::BlockCost;
use std::sync::atomic::Ordering;

use super::grid::GridCtx;

const WARP: u32 = 32;
const FULL_MASK: u32 = u32::MAX;
/// Sentinel for "no register" in [`Op::AtomicApply`]'s `cmp`/`old`.
const NO_REG: u16 = u16::MAX;

/// One flat instruction. `u16` operands index vregs; `u32` operands are
/// op-array offsets (jump targets) or side-table indices.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Statement prologue: recompute the active mask from the enclosing
    /// list mask and `returned`; if empty, abort the rest of the
    /// enclosing statement list (jump to `end`); otherwise charge
    /// `1 + expr_ops` issue slots and bump the dynamic statement counter.
    Begin { expr_ops: u32, end: u32 },
    /// Folded prologue of a straight-line run of statements whose active
    /// mask provably cannot change mid-run (no control flow, no `Ret`):
    /// one mask recompute and abort check, then the whole run's
    /// compile-time issue-slot total `ops` charged at once, scaled by the
    /// live mask population. Later statements in the run keep only an
    /// [`Op::SeqTick`]. Totals are bit-identical to per-statement
    /// [`Op::Begin`]s because every folded statement would have charged
    /// under the same mask ([`CostStats`](crate::timing::cost::CostStats)
    /// counters are order-independent sums, and traps discard the
    /// launch's costs entirely).
    BeginRun { ops: u32, end: u32 },
    /// Later statement of a folded run: bump the dynamic statement
    /// counter (race-log `seq` identity) — its cost is already charged by
    /// the run's [`Op::BeginRun`].
    SeqTick,
    /// [`Op::Begin`] for `While`: bumps the statement counter but leaves
    /// charging to [`Op::WhileHead`] (the interpreter charges the
    /// condition per iteration, not the statement itself).
    BeginW { end: u32 },
    /// Masked register copy (the root of an `Assign`).
    Mov { dst: u16, src: u16 },
    /// Masked binary ALU op. `Div`/`Rem` trap per ascending active lane.
    Bin { op: Binop, dst: u16, a: u16, b: u16 },
    /// Masked unary ALU op.
    Un { op: Unop, dst: u16, a: u16 },
    /// Masked eager select (both arms proven trap-free at compile time).
    Blend { dst: u16, c: u16, a: u16, b: u16 },
    /// Masked lazy evaluation of `exprs[expr]` — the fallback for
    /// expressions whose eager flattening could introduce a trap the
    /// interpreter's lazy `Select` would skip.
    EvalTree { dst: u16, expr: u32 },
    /// Branch split: partition the statement mask by `c`, count
    /// divergence, and enter the then/else lists.
    IfSplit {
        c: u16,
        else_t: u32,
        end_t: u32,
        has_else: bool,
    },
    /// End of a then-list when an else-list exists: either switch to the
    /// pending else mask or restore the parent list mask and skip it.
    EndThen { end_t: u32 },
    /// End of an `If`: restore the parent list mask.
    EndIf,
    /// Push a loop frame capturing the parent list mask and the entry
    /// live mask.
    WhileEnter,
    /// Loop head: filter the live mask by `returned` and charge the
    /// condition (the interpreter charges even when no lane is live).
    WhileHead { cond_ops: u32 },
    /// Loop test: shrink the live mask by the condition, count
    /// divergence, and exit when empty.
    WhileTest { c: u16, exit: u32 },
    /// Back edge to [`Op::WhileHead`].
    WhileJump { head: u32 },
    /// Global load with coalescing lookup. `site` indexes the per-launch
    /// coalescing-pattern cache.
    LoadG { dst: u16, buf: u8, idx: u16, site: u32 },
    /// Global-store bounds check + coalescing lookup (indices already
    /// flattened; values follow). `site` as in [`Op::LoadG`].
    StoreCheck { buf: u8, idx: u16, site: u32 },
    /// Global store (bounds already checked by [`Op::StoreCheck`]).
    StoreG { buf: u8, idx: u16, val: u16 },
    /// Atomic read-modify-write with serialization accounting. `cmp` and
    /// `old` are [`NO_REG`] when absent.
    AtomicApply {
        op: AtomicOp,
        buf: u8,
        idx: u16,
        val: u16,
        cmp: u16,
        old: u16,
    },
    /// Shared-memory load with bank-conflict modeling.
    LoadS { dst: u16, idx: u16 },
    /// Shared-memory store with bank-conflict modeling.
    StoreS { idx: u16, val: u16 },
    /// Deactivate the active lanes for the rest of the kernel.
    Ret,
    /// `__syncthreads()`: charge sync cycles and advance the barrier
    /// epoch (happens-before clock).
    Sync,
}

/// Per-warp initialization of one leaf vreg (runs once per block per
/// warp, cost-free — leaves are free in the interpreter too, it just
/// re-evaluates them on every use).
#[derive(Debug, Clone)]
enum LeafInit {
    Imm { dst: u16, val: u32 },
    Param { dst: u16, slot: u8 },
    Special { dst: u16, s: Special },
}

/// Block-wide collective closing a phase (run host-side, like the
/// interpreter's `apply_barrier`).
#[derive(Debug, Clone)]
struct BarrierCode {
    op: BarrierOp,
    value: Expr,
    dst: u16,
}

/// One barrier-delimited phase: a flat op array plus the optional
/// collective that closes it.
#[derive(Debug, Clone)]
struct PhaseCode {
    ops: Vec<Op>,
    barrier: Option<BarrierCode>,
}

/// A compiled kernel: flat per-phase op arrays, the leaf prologue, the
/// side table of lazily-evaluated expressions, and the vreg file size.
#[derive(Debug, Clone)]
pub(crate) struct Bytecode {
    phases: Vec<PhaseCode>,
    prologue: Vec<LeafInit>,
    exprs: Vec<Expr>,
    num_vregs: u16,
    /// Global-access sites (one per `LoadG`/`StoreCheck`), sizing the
    /// per-launch coalescing-pattern cache.
    num_sites: u32,
    /// The slots (and shared memory) the kernel stores to or updates
    /// atomically: the race log's load filter.
    pub(crate) writes: Writes,
}

impl Bytecode {
    /// Total op count across phases (diagnostics only).
    #[cfg(test)]
    fn op_count(&self) -> usize {
        self.phases.iter().map(|p| p.ops.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------

/// Interned leaf expressions (deduped kernel-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeafKey {
    Imm(u32),
    Param(u8),
    Special(Special),
}

struct Compiler {
    ops: Vec<Op>,
    exprs: Vec<Expr>,
    leaves: Vec<(LeafKey, u16)>,
    num_regs: u16,
    /// First temp vreg: `num_regs + leaves.len()` (temps reset per
    /// statement).
    temp_base: u16,
    /// High-water mark of the vreg file.
    max_vregs: u16,
    /// Next global-access site id.
    sites: u32,
}

/// True if eagerly evaluating `e` could trap (`Div`/`Rem` anywhere in
/// the subtree).
fn contains_trap(e: &Expr) -> bool {
    match e {
        Expr::Imm(_) | Expr::Reg(_) | Expr::Param(_) | Expr::Special(_) => false,
        Expr::Unop(_, a) => contains_trap(a),
        Expr::Binop(op, a, b) => {
            matches!(op, Binop::Div | Binop::Rem) || contains_trap(a) || contains_trap(b)
        }
        Expr::Select(c, a, b) => contains_trap(c) || contains_trap(a) || contains_trap(b),
    }
}

impl Compiler {
    fn intern_leaf(&mut self, key: LeafKey) {
        if !self.leaves.iter().any(|(k, _)| *k == key) {
            let vreg = self
                .num_regs
                .checked_add(self.leaves.len() as u16)
                .expect("vreg file overflow");
            self.leaves.push((key, vreg));
        }
    }

    fn leaf(&self, key: LeafKey) -> u16 {
        self.leaves
            .iter()
            .find(|(k, _)| *k == key)
            .expect("leaf interned during collection")
            .1
    }

    fn collect_leaves_expr(&mut self, e: &Expr) {
        match e {
            Expr::Imm(v) => self.intern_leaf(LeafKey::Imm(*v)),
            Expr::Reg(_) => {}
            Expr::Param(p) => self.intern_leaf(LeafKey::Param(*p)),
            Expr::Special(s) => self.intern_leaf(LeafKey::Special(*s)),
            Expr::Unop(_, a) => self.collect_leaves_expr(a),
            Expr::Binop(_, a, b) => {
                self.collect_leaves_expr(a);
                self.collect_leaves_expr(b);
            }
            // Interning a superset (arms that end up lazily evaluated)
            // only costs idle vregs, never correctness.
            Expr::Select(c, a, b) => {
                self.collect_leaves_expr(c);
                self.collect_leaves_expr(a);
                self.collect_leaves_expr(b);
            }
        }
    }

    fn collect_leaves_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(_, e) => self.collect_leaves_expr(e),
            Stmt::Load { index, .. } | Stmt::SharedLoad { index, .. } => {
                self.collect_leaves_expr(index)
            }
            Stmt::Store { index, value, .. } | Stmt::SharedStore { index, value } => {
                self.collect_leaves_expr(index);
                self.collect_leaves_expr(value);
            }
            Stmt::Atomic {
                index,
                value,
                compare,
                ..
            } => {
                self.collect_leaves_expr(index);
                self.collect_leaves_expr(value);
                if let Some(c) = compare {
                    self.collect_leaves_expr(c);
                }
            }
            Stmt::If { cond, then_, else_ } => {
                self.collect_leaves_expr(cond);
                then_.iter().for_each(|s| self.collect_leaves_stmt(s));
                else_.iter().for_each(|s| self.collect_leaves_stmt(s));
            }
            Stmt::While { cond, body } => {
                self.collect_leaves_expr(cond);
                body.iter().for_each(|s| self.collect_leaves_stmt(s));
            }
            // Barrier values are evaluated lazily host-side.
            Stmt::Return | Stmt::SyncThreads | Stmt::Barrier { .. } => {}
        }
    }

    fn site(&mut self) -> u32 {
        let s = self.sites;
        self.sites += 1;
        s
    }

    fn alloc_temp(&mut self, temp: &mut u16) -> u16 {
        let t = *temp;
        *temp = temp.checked_add(1).expect("vreg file overflow");
        self.max_vregs = self.max_vregs.max(*temp);
        t
    }

    /// Flattens `e` into ops writing its value to the returned vreg.
    fn expr(&mut self, e: &Expr, temp: &mut u16) -> u16 {
        match e {
            Expr::Imm(v) => self.leaf(LeafKey::Imm(*v)),
            Expr::Reg(r) => r.0,
            Expr::Param(p) => self.leaf(LeafKey::Param(*p)),
            Expr::Special(s) => self.leaf(LeafKey::Special(*s)),
            Expr::Unop(op, a) => {
                let va = self.expr(a, temp);
                let dst = self.alloc_temp(temp);
                self.ops.push(Op::Un { op: *op, dst, a: va });
                dst
            }
            Expr::Binop(op, a, b) => {
                let va = self.expr(a, temp);
                let vb = self.expr(b, temp);
                let dst = self.alloc_temp(temp);
                self.ops.push(Op::Bin {
                    op: *op,
                    dst,
                    a: va,
                    b: vb,
                });
                dst
            }
            Expr::Select(c, a, b) => {
                if contains_trap(a) || contains_trap(b) {
                    // Eager evaluation could trap where the interpreter's
                    // lazy Select would not: fall back to tree evaluation
                    // of this subtree.
                    let id = self.exprs.len() as u32;
                    self.exprs.push(e.clone());
                    let dst = self.alloc_temp(temp);
                    self.ops.push(Op::EvalTree { dst, expr: id });
                    dst
                } else {
                    let vc = self.expr(c, temp);
                    let va = self.expr(a, temp);
                    let vb = self.expr(b, temp);
                    let dst = self.alloc_temp(temp);
                    self.ops.push(Op::Blend {
                        dst,
                        c: vc,
                        a: va,
                        b: vb,
                    });
                    dst
                }
            }
        }
    }

    /// Compiles a statement list; every statement's `Begin` aborts to the
    /// end of the list (matching `exec_stmts`, which stops executing the
    /// remaining statements once the mask empties).
    fn stmt_list(&mut self, list: &[Stmt]) {
        let mut begins = Vec::with_capacity(list.len());
        for s in list {
            begins.push(self.stmt(s));
        }
        let end = self.ops.len() as u32;
        for bi in begins {
            match &mut self.ops[bi] {
                Op::Begin { end: e, .. } | Op::BeginW { end: e } => *e = end,
                _ => unreachable!("statement entry is a Begin"),
            }
        }
    }

    /// Compiles one statement, returning the index of its `Begin` op
    /// (patched by [`Compiler::stmt_list`] with the list-end target).
    fn stmt(&mut self, s: &Stmt) -> usize {
        let mut temp = self.temp_base;
        let begin = self.ops.len();
        match s {
            Stmt::Assign(dst, e) => {
                self.ops.push(Op::Begin {
                    expr_ops: e.op_count() as u32,
                    end: 0,
                });
                let src = self.expr(e, &mut temp);
                self.ops.push(Op::Mov { dst: dst.0, src });
            }
            Stmt::Load { dst, buf, index } => {
                self.ops.push(Op::Begin {
                    expr_ops: index.op_count() as u32,
                    end: 0,
                });
                let idx = self.expr(index, &mut temp);
                let site = self.site();
                self.ops.push(Op::LoadG {
                    dst: dst.0,
                    buf: buf.0,
                    idx,
                    site,
                });
            }
            Stmt::Store { buf, index, value } => {
                self.ops.push(Op::Begin {
                    expr_ops: (index.op_count() + value.op_count()) as u32,
                    end: 0,
                });
                let idx = self.expr(index, &mut temp);
                let site = self.site();
                self.ops.push(Op::StoreCheck {
                    buf: buf.0,
                    idx,
                    site,
                });
                let val = self.expr(value, &mut temp);
                self.ops.push(Op::StoreG {
                    buf: buf.0,
                    idx,
                    val,
                });
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
                self.ops.push(Op::Begin {
                    expr_ops: ops as u32,
                    end: 0,
                });
                let idx = self.expr(index, &mut temp);
                let val = self.expr(value, &mut temp);
                let cmp = compare
                    .as_ref()
                    .map_or(NO_REG, |c| self.expr(c, &mut temp));
                self.ops.push(Op::AtomicApply {
                    op: *op,
                    buf: buf.0,
                    idx,
                    val,
                    cmp,
                    old: old.map_or(NO_REG, |r| r.0),
                });
            }
            Stmt::SharedLoad { dst, index } => {
                self.ops.push(Op::Begin {
                    expr_ops: index.op_count() as u32,
                    end: 0,
                });
                let idx = self.expr(index, &mut temp);
                self.ops.push(Op::LoadS { dst: dst.0, idx });
            }
            Stmt::SharedStore { index, value } => {
                self.ops.push(Op::Begin {
                    expr_ops: (index.op_count() + value.op_count()) as u32,
                    end: 0,
                });
                let idx = self.expr(index, &mut temp);
                let val = self.expr(value, &mut temp);
                self.ops.push(Op::StoreS { idx, val });
            }
            Stmt::If { cond, then_, else_ } => {
                self.ops.push(Op::Begin {
                    expr_ops: cond.op_count() as u32,
                    end: 0,
                });
                let c = self.expr(cond, &mut temp);
                let has_else = !else_.is_empty();
                let split = self.ops.len();
                self.ops.push(Op::IfSplit {
                    c,
                    else_t: 0,
                    end_t: 0,
                    has_else,
                });
                self.stmt_list(then_);
                let end_then = if has_else {
                    let i = self.ops.len();
                    self.ops.push(Op::EndThen { end_t: 0 });
                    Some(i)
                } else {
                    None
                };
                let else_t = self.ops.len() as u32;
                if has_else {
                    self.stmt_list(else_);
                }
                self.ops.push(Op::EndIf);
                let end_t = self.ops.len() as u32;
                match &mut self.ops[split] {
                    Op::IfSplit {
                        else_t: et,
                        end_t: en,
                        ..
                    } => {
                        *et = else_t;
                        *en = end_t;
                    }
                    _ => unreachable!(),
                }
                if let Some(i) = end_then {
                    match &mut self.ops[i] {
                        Op::EndThen { end_t: en } => *en = end_t,
                        _ => unreachable!(),
                    }
                }
            }
            Stmt::While { cond, body } => {
                self.ops.push(Op::BeginW { end: 0 });
                self.ops.push(Op::WhileEnter);
                let head = self.ops.len() as u32;
                self.ops.push(Op::WhileHead {
                    cond_ops: cond.op_count() as u32,
                });
                let c = self.expr(cond, &mut temp);
                let test = self.ops.len();
                self.ops.push(Op::WhileTest { c, exit: 0 });
                self.stmt_list(body);
                self.ops.push(Op::WhileJump { head });
                let exit = self.ops.len() as u32;
                match &mut self.ops[test] {
                    Op::WhileTest { exit: e, .. } => *e = exit,
                    _ => unreachable!(),
                }
                // BeginW's list-end patch (from stmt_list) would target
                // the *enclosing* list end; an empty statement mask must
                // instead skip just this statement, which is the same
                // thing because the next Begin re-checks the mask — but
                // the enclosing-list target is what exec_stmts does, so
                // leave it to stmt_list.
            }
            Stmt::Return => {
                self.ops.push(Op::Begin {
                    expr_ops: 0,
                    end: 0,
                });
                self.ops.push(Op::Ret);
            }
            Stmt::SyncThreads => {
                self.ops.push(Op::Begin {
                    expr_ops: 0,
                    end: 0,
                });
                self.ops.push(Op::Sync);
            }
            Stmt::Barrier { .. } => {
                unreachable!("barriers are phase-split before compilation")
            }
        }
        begin
    }
}

/// Cost-folding peephole: rewrites each maximal straight-line run of
/// two or more statements into one [`Op::BeginRun`] (charging the run's
/// compile-time issue-slot total) followed by [`Op::SeqTick`]s at the
/// later statement boundaries.
///
/// A run extends over consecutive [`Op::Begin`]s whose intervening ops
/// are ALU/memory/`Sync` only: nothing in the run can change the active
/// mask (`lmask` moves only at control-flow ops, `returned` only at
/// `Ret`, and both end the run), so every folded statement would have
/// charged under the run-entry mask. Ops are replaced 1:1 in place —
/// jump targets never shift.
fn fold_costs(ops: &mut [Op]) {
    let mut i = 0;
    while i < ops.len() {
        if !matches!(ops[i], Op::Begin { .. }) {
            i += 1;
            continue;
        }
        let mut begins: Vec<usize> = Vec::new();
        let mut total: u64 = 0;
        let mut j = i;
        while j < ops.len() {
            match &ops[j] {
                Op::Begin { expr_ops, .. } => {
                    begins.push(j);
                    total += 1 + *expr_ops as u64;
                }
                Op::Mov { .. }
                | Op::Bin { .. }
                | Op::Un { .. }
                | Op::Blend { .. }
                | Op::EvalTree { .. }
                | Op::LoadG { .. }
                | Op::StoreCheck { .. }
                | Op::StoreG { .. }
                | Op::AtomicApply { .. }
                | Op::LoadS { .. }
                | Op::StoreS { .. }
                | Op::Sync => {}
                _ => break,
            }
            j += 1;
        }
        if begins.len() > 1 {
            let end = match ops[begins[0]] {
                Op::Begin { end, .. } => end,
                _ => unreachable!(),
            };
            ops[begins[0]] = Op::BeginRun {
                ops: u32::try_from(total).expect("folded cost overflow"),
                end,
            };
            for &b in &begins[1..] {
                ops[b] = Op::SeqTick;
            }
        }
        i = j.max(i + 1);
    }
}

/// Compiles `kernel` to bytecode. Pure function of the kernel body —
/// memoized on the kernel via [`Kernel::bytecode`].
pub(crate) fn compile(kernel: &Kernel) -> Bytecode {
    let mut c = Compiler {
        ops: Vec::new(),
        exprs: Vec::new(),
        leaves: Vec::new(),
        num_regs: kernel.num_regs,
        temp_base: 0,
        max_vregs: 0,
        sites: 0,
    };
    for s in &kernel.body {
        c.collect_leaves_stmt(s);
    }
    c.temp_base = c
        .num_regs
        .checked_add(c.leaves.len() as u16)
        .expect("vreg file overflow");
    c.max_vregs = c.temp_base;
    let mut phases = Vec::new();
    for (segment, barrier) in kernel.phases() {
        c.ops = Vec::new();
        c.stmt_list(segment);
        fold_costs(&mut c.ops);
        let barrier = barrier.map(|b| match b {
            Stmt::Barrier { op, value, dst } => BarrierCode {
                op: *op,
                value: value.clone(),
                dst: dst.0,
            },
            _ => unreachable!("phases() only yields Barrier separators"),
        });
        phases.push(PhaseCode {
            ops: std::mem::take(&mut c.ops),
            barrier,
        });
    }
    let prologue = c
        .leaves
        .iter()
        .map(|&(key, dst)| match key {
            LeafKey::Imm(val) => LeafInit::Imm { dst, val },
            LeafKey::Param(slot) => LeafInit::Param { dst, slot },
            LeafKey::Special(s) => LeafInit::Special { dst, s },
        })
        .collect();
    let mut writes = Writes {
        bufs: vec![false; kernel.num_bufs as usize],
        shared: false,
    };
    for op in phases.iter().flat_map(|p| &p.ops) {
        match *op {
            Op::StoreG { buf, .. } | Op::AtomicApply { buf, .. } => {
                writes.bufs[buf as usize] = true
            }
            Op::StoreS { .. } => writes.shared = true,
            _ => {}
        }
    }
    Bytecode {
        phases,
        prologue,
        exprs: c.exprs,
        num_vregs: c.max_vregs,
        num_sites: c.sites,
        writes,
    }
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// Reusable per-worker scratch space (vreg file, shared memory, per-warp
/// masks and clocks), so running millions of small blocks does not
/// allocate per block.
#[derive(Default)]
pub struct BcScratch {
    vregs: Vec<u32>,
    shared: Vec<u32>,
    returned: Vec<u32>,
    epochs: Vec<u32>,
    seqs: Vec<u32>,
    frames: Vec<Frame>,
    /// Per-site coalescing-pattern memo, indexed by `Op::LoadG`/
    /// `Op::StoreCheck` site id. Sound across the blocks of one launch
    /// (same bytecode): `run_blocks` creates a fresh scratch per launch.
    coalesce: Vec<PatternCache>,
}

/// Control-flow frame (per warp, reset per phase segment).
#[derive(Debug, Clone)]
enum Frame {
    If {
        /// Enclosing list mask to restore at `EndIf`/`EndThen`.
        saved: u32,
        /// Pending else mask (0 once entered or absent).
        else_mask: u32,
    },
    Loop {
        /// Enclosing list mask to restore at loop exit.
        saved: u32,
        /// Lanes still iterating.
        live: u32,
        /// First iteration (the first mask shrink is not divergence).
        first: bool,
    },
}

/// The value of a `Special` for one lane.
#[inline]
fn special_value(s: Special, g: &GridCtx<'_>, block_idx: u32, warp_base: u32, lane: u32) -> u32 {
    let thread_idx = warp_base + lane;
    match s {
        Special::ThreadIdx => thread_idx,
        Special::BlockIdx => block_idx,
        Special::BlockDim => g.block_dim,
        Special::GridDim => g.grid_dim,
        Special::LaneId => lane,
        Special::GlobalThreadId => block_idx
            .wrapping_mul(g.block_dim)
            .wrapping_add(thread_idx),
    }
}

/// Lazy recursive evaluation over a warp's vreg file — identical to the
/// interpreter's `eval` (used by [`Op::EvalTree`] and barrier values).
fn eval_expr(
    g: &GridCtx<'_>,
    block_idx: u32,
    warp_base: u32,
    vr: &[u32],
    e: &Expr,
    lane: u32,
) -> Result<u32, SimError> {
    Ok(match e {
        Expr::Imm(v) => *v,
        Expr::Reg(r) => vr[r.0 as usize * WARP as usize + lane as usize],
        Expr::Param(p) => g.scalars[*p as usize],
        Expr::Special(s) => special_value(*s, g, block_idx, warp_base, lane),
        Expr::Unop(op, a) => apply_unop(*op, eval_expr(g, block_idx, warp_base, vr, a, lane)?),
        Expr::Binop(op, a, b) => {
            let x = eval_expr(g, block_idx, warp_base, vr, a, lane)?;
            let y = eval_expr(g, block_idx, warp_base, vr, b, lane)?;
            apply_binop(*op, x, y).ok_or_else(|| SimError::DivisionByZero {
                kernel: g.kernel.name.clone(),
            })?
        }
        Expr::Select(c, a, b) => {
            if eval_expr(g, block_idx, warp_base, vr, c, lane)? != 0 {
                eval_expr(g, block_idx, warp_base, vr, a, lane)?
            } else {
                eval_expr(g, block_idx, warp_base, vr, b, lane)?
            }
        }
    })
}

/// Per-warp mutable view during op execution.
///
/// Costs accumulate in the by-value `acc` (register-friendly: no stores
/// through `&mut BlockCost` on the hot path) and flush into `cost` once
/// per [`WarpExec::exec`] call — i.e. at phase boundaries. `BlockCost`
/// is a sum of order-independent counters, so batched flushing is
/// bit-identical; a trapped launch discards its costs entirely, so the
/// unflushed remainder on the error path is never observable.
struct WarpExec<'a, 'g> {
    g: &'a GridCtx<'g>,
    bc: &'a Bytecode,
    block_idx: u32,
    warp_base: u32,
    /// This warp's vreg file, `num_vregs * 32`, lane-minor.
    vr: &'a mut [u32],
    shared: &'a mut [u32],
    returned: &'a mut u32,
    cost: &'a mut BlockCost,
    /// Batched charges, flushed to `cost` at the end of each phase.
    acc: BlockCost,
    epoch: &'a mut u32,
    seq: &'a mut u32,
    log: Option<&'a mut RaceLog>,
    frames: &'a mut Vec<Frame>,
    coalesce: &'a mut [PatternCache],
}

impl<'a, 'g> WarpExec<'a, 'g> {
    #[inline]
    fn charge(&mut self, expr_ops: u64, mask: u32) {
        let ops = 1 + expr_ops;
        self.acc.issue_cycles += ops;
        self.acc.stats.instructions += ops;
        self.acc.stats.active_lane_instructions += ops * mask.count_ones() as u64;
    }

    /// Charges a folded straight-line run: `ops` total issue slots, all
    /// under one mask.
    #[inline]
    fn charge_run(&mut self, ops: u64, mask: u32) {
        self.acc.issue_cycles += ops;
        self.acc.stats.instructions += ops;
        self.acc.stats.active_lane_instructions += ops * mask.count_ones() as u64;
    }

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

    /// True when race detection is on and a plain load through `slot` can
    /// race, so must be logged: loads that cannot race are left out (see
    /// [`RaceLog`]).
    #[inline]
    fn logs_load(&self, slot: u16) -> bool {
        self.log.as_deref().is_some_and(|l| l.load_can_race(slot))
    }

    fn oob(&self, buf_slot: u8, index: u64) -> SimError {
        SimError::OutOfBounds {
            kernel: self.g.kernel.name.clone(),
            buffer: self.g.bufs[buf_slot as usize].label.clone(),
            index,
            len: self.g.bufs[buf_slot as usize].data.len(),
        }
    }

    fn div0(&self) -> SimError {
        SimError::DivisionByZero {
            kernel: self.g.kernel.name.clone(),
        }
    }

    #[inline]
    fn row(r: u16, lane: u32) -> usize {
        r as usize * WARP as usize + lane as usize
    }

    /// Bounds-checks the active lanes of a global access and (timed)
    /// charges coalesced transactions via the pattern classifier and the
    /// site's pattern cache. All of a warp's addresses target one buffer,
    /// so the word indices alone determine the segment count — no tagged
    /// 64-bit addresses, and no sort for affine/monotone patterns.
    fn global_check<const TIMED: bool>(
        &mut self,
        buf: u8,
        idx: u16,
        site: u32,
        mask: u32,
    ) -> Result<(), SimError> {
        let len = self.g.bufs[buf as usize].data.len();
        let mut words = [0u32; 32];
        let mut n = 0usize;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let i = self.vr[Self::row(idx, lane)];
            if (i as usize) >= len {
                return Err(self.oob(buf, i as u64));
            }
            if TIMED {
                words[n] = i;
                n += 1;
            }
        }
        if TIMED {
            let tx = transactions_for_words(
                &words[..n],
                self.g.cfg.transaction_bytes,
                mask,
                self.coalesce.get_mut(site as usize),
            );
            self.acc.stats.mem_transactions += tx as u64;
            self.acc.stats.mem_bytes += tx as u64 * self.g.cfg.transaction_bytes as u64;
            self.acc.issue_cycles += tx as u64 * self.g.cfg.mem_issue_cycles;
        }
        Ok(())
    }

    fn load_global<const TIMED: bool>(
        &mut self,
        dst: u16,
        buf: u8,
        idx: u16,
        site: u32,
        mask: u32,
    ) -> Result<(), SimError> {
        if TIMED {
            self.acc.stats.loads += 1;
        }
        self.global_check::<TIMED>(buf, idx, site, mask)?;
        if TIMED {
            self.acc.stall_cycles += self.g.cfg.mem_latency_cycles;
        }
        let b: &Buffer = self.g.bufs[buf as usize];
        let logged = TIMED && self.logs_load(buf as u16);
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let i = self.vr[Self::row(idx, lane)];
            let v = b.data[i as usize].load(Ordering::Relaxed);
            self.vr[Self::row(dst, lane)] = v;
            if logged {
                self.log_access(buf as u16, i, AccessKind::Read, 0);
            }
        }
        Ok(())
    }

    fn store_global<const TIMED: bool>(&mut self, buf: u8, idx: u16, val: u16, mask: u32) {
        let b: &Buffer = self.g.bufs[buf as usize];
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let i = self.vr[Self::row(idx, lane)];
            let v = self.vr[Self::row(val, lane)];
            b.data[i as usize].store(v, Ordering::Relaxed);
            if TIMED && self.log.is_some() {
                self.log_access(buf as u16, i, AccessKind::Write, v);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn atomic_apply<const TIMED: bool>(
        &mut self,
        op: AtomicOp,
        buf: u8,
        idx: u16,
        val: u16,
        cmp: u16,
        old: u16,
        mask: u32,
    ) -> Result<(), SimError> {
        let b: &Buffer = self.g.bufs[buf as usize];
        let len = b.data.len();
        // Apply lane by lane (hardware order is unspecified; ascending
        // lane order is our deterministic choice), and measure address
        // conflicts.
        let mut sorted_idx = [0u32; 32];
        let mut monotone = true;
        let mut groups_inline = 0u64;
        let mut n = 0usize;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let i = self.vr[Self::row(idx, lane)];
            if (i as usize) >= len {
                return Err(self.oob(buf, i as u64));
            }
            let v = self.vr[Self::row(val, lane)];
            let cell = &b.data[i as usize];
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
                    let c = self.vr[Self::row(cmp, lane)];
                    match cell.compare_exchange(c, v, Ordering::Relaxed, Ordering::Relaxed) {
                        Ok(o) | Err(o) => o,
                    }
                }
            };
            if old != NO_REG {
                self.vr[Self::row(old, lane)] = prev;
            }
            if TIMED && self.log.is_some() {
                self.log_access(buf as u16, i, AccessKind::Atomic, v);
            }
            if TIMED {
                if n == 0 {
                    groups_inline = 1;
                } else if i < sorted_idx[n - 1] {
                    monotone = false;
                } else if i != sorted_idx[n - 1] {
                    groups_inline += 1;
                }
            }
            sorted_idx[n] = i;
            n += 1;
        }
        if TIMED {
            // Distinct-address count: ascending index vectors (the common
            // scatter shape) are counted inline; irregular ones sort.
            let groups = if monotone {
                groups_inline
            } else {
                sorted_idx[..n].sort_unstable();
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
            self.acc.stats.atomics += n as u64;
            self.acc.stats.atomic_conflicts += conflicts;
            self.acc.stats.mem_bytes += n as u64 * 4;
            self.acc.issue_cycles += groups * self.g.cfg.atomic_issue_cycles
                + conflicts * self.g.cfg.atomic_conflict_cycles;
            self.acc.stall_cycles += self.g.cfg.mem_latency_cycles;
        }
        Ok(())
    }

    /// Shared access: bounds-checks indices, performs the load or store,
    /// and (timed) models bank-conflict replays.
    fn shared_access<const TIMED: bool>(
        &mut self,
        idx: u16,
        load_dst: Option<u16>,
        store_val: Option<u16>,
        mask: u32,
    ) -> Result<(), SimError> {
        if TIMED {
            self.acc.stats.shared_accesses += 1;
        }
        let len = self.shared.len();
        let mut words = [0u64; 32];
        let mut lanes = [0u32; 32];
        let mut n = 0usize;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let i = self.vr[Self::row(idx, lane)];
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
        let replays = if TIMED {
            bank_conflict_replays(&words[..n], 32)
        } else {
            0
        };
        let load_logged = TIMED && self.logs_load(SHARED_SLOT);
        for k in 0..n {
            let (lane, word) = (lanes[k], words[k] as usize);
            if let Some(dst) = load_dst {
                let v = self.shared[word];
                self.vr[Self::row(dst, lane)] = v;
                if load_logged {
                    self.log_access(SHARED_SLOT, word as u32, AccessKind::Read, 0);
                }
            } else if let Some(val) = store_val {
                let v = self.vr[Self::row(val, lane)];
                self.shared[word] = v;
                if TIMED && self.log.is_some() {
                    self.log_access(SHARED_SLOT, word as u32, AccessKind::Write, v);
                }
            }
        }
        if TIMED {
            self.acc.stats.shared_replays += replays as u64;
            self.acc.issue_cycles += replays as u64 * self.g.cfg.shared_conflict_cycles;
        }
        Ok(())
    }

    /// Executes one phase segment's ops with `init_mask` active lanes,
    /// then flushes the batched charges into the block cost.
    fn exec<const TIMED: bool>(&mut self, ops: &[Op], init_mask: u32) -> Result<(), SimError> {
        self.exec_inner::<TIMED>(ops, init_mask)?;
        if TIMED {
            *self.cost += self.acc;
            self.acc = BlockCost::default();
        }
        Ok(())
    }

    fn exec_inner<const TIMED: bool>(&mut self, ops: &[Op], init_mask: u32) -> Result<(), SimError> {
        self.frames.clear();
        let mut lmask = init_mask;
        let mut mask = init_mask;
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                Op::Begin { expr_ops, end } => {
                    mask = lmask & !*self.returned;
                    if mask == 0 {
                        pc = *end as usize;
                        continue;
                    }
                    if TIMED {
                        *self.seq = self.seq.wrapping_add(1);
                        self.charge(*expr_ops as u64, mask);
                    }
                }
                Op::BeginRun { ops, end } => {
                    mask = lmask & !*self.returned;
                    if mask == 0 {
                        pc = *end as usize;
                        continue;
                    }
                    if TIMED {
                        *self.seq = self.seq.wrapping_add(1);
                        self.charge_run(*ops as u64, mask);
                    }
                }
                Op::SeqTick => {
                    if TIMED {
                        *self.seq = self.seq.wrapping_add(1);
                    }
                }
                Op::BeginW { end } => {
                    mask = lmask & !*self.returned;
                    if mask == 0 {
                        pc = *end as usize;
                        continue;
                    }
                    if TIMED {
                        *self.seq = self.seq.wrapping_add(1);
                    }
                }
                Op::Mov { dst, src } => {
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        self.vr[Self::row(*dst, lane)] = self.vr[Self::row(*src, lane)];
                    }
                }
                Op::Bin { op, dst, a, b } => {
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let x = self.vr[Self::row(*a, lane)];
                        let y = self.vr[Self::row(*b, lane)];
                        let v = apply_binop(*op, x, y).ok_or_else(|| self.div0())?;
                        self.vr[Self::row(*dst, lane)] = v;
                    }
                }
                Op::Un { op, dst, a } => {
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let x = self.vr[Self::row(*a, lane)];
                        self.vr[Self::row(*dst, lane)] = apply_unop(*op, x);
                    }
                }
                Op::Blend { dst, c, a, b } => {
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let v = if self.vr[Self::row(*c, lane)] != 0 {
                            self.vr[Self::row(*a, lane)]
                        } else {
                            self.vr[Self::row(*b, lane)]
                        };
                        self.vr[Self::row(*dst, lane)] = v;
                    }
                }
                Op::EvalTree { dst, expr } => {
                    let e = &self.bc.exprs[*expr as usize];
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let v =
                            eval_expr(self.g, self.block_idx, self.warp_base, self.vr, e, lane)?;
                        self.vr[Self::row(*dst, lane)] = v;
                    }
                }
                Op::IfSplit {
                    c,
                    else_t,
                    end_t,
                    has_else,
                } => {
                    let mut m_then = 0u32;
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        if self.vr[Self::row(*c, lane)] != 0 {
                            m_then |= 1 << lane;
                        }
                    }
                    let m_else = mask & !m_then;
                    if TIMED && m_then != 0 && m_else != 0 {
                        self.acc.stats.divergent_branches += 1;
                    }
                    let enter_else = *has_else && m_else != 0;
                    if m_then != 0 {
                        self.frames.push(Frame::If {
                            saved: lmask,
                            else_mask: if enter_else { m_else } else { 0 },
                        });
                        lmask = m_then;
                    } else if enter_else {
                        self.frames.push(Frame::If {
                            saved: lmask,
                            else_mask: 0,
                        });
                        lmask = m_else;
                        pc = *else_t as usize;
                        continue;
                    } else {
                        pc = *end_t as usize;
                        continue;
                    }
                }
                Op::EndThen { end_t } => {
                    match self.frames.last_mut() {
                        Some(Frame::If { saved, else_mask }) => {
                            if *else_mask != 0 {
                                lmask = *else_mask;
                                *else_mask = 0;
                                // fall through into the else list
                            } else {
                                lmask = *saved;
                                self.frames.pop();
                                pc = *end_t as usize;
                                continue;
                            }
                        }
                        _ => unreachable!("EndThen without If frame"),
                    }
                }
                Op::EndIf => match self.frames.pop() {
                    Some(Frame::If { saved, .. }) => lmask = saved,
                    _ => unreachable!("EndIf without If frame"),
                },
                Op::WhileEnter => {
                    self.frames.push(Frame::Loop {
                        saved: lmask,
                        live: mask,
                        first: true,
                    });
                }
                Op::WhileHead { cond_ops } => {
                    let live = match self.frames.last() {
                        Some(Frame::Loop { live, .. }) => *live & !*self.returned,
                        _ => unreachable!("WhileHead without Loop frame"),
                    };
                    // The interpreter charges the condition even when no
                    // lane is live anymore (the final, failing test).
                    if TIMED {
                        self.charge(*cond_ops as u64, live);
                    }
                    mask = live;
                }
                Op::WhileTest { c, exit } => {
                    let mut m = 0u32;
                    let mut it = mask;
                    while it != 0 {
                        let lane = it.trailing_zeros();
                        it &= it - 1;
                        if self.vr[Self::row(*c, lane)] != 0 {
                            m |= 1 << lane;
                        }
                    }
                    let diverged = match self.frames.last_mut() {
                        Some(Frame::Loop { live, first, .. }) => {
                            let d = !*first && m != mask && m != 0;
                            *first = false;
                            *live = m;
                            d
                        }
                        _ => unreachable!("WhileTest without Loop frame"),
                    };
                    if TIMED && diverged {
                        // some lanes left while others loop on: divergence
                        self.acc.stats.divergent_branches += 1;
                    }
                    if m == 0 {
                        match self.frames.pop() {
                            Some(Frame::Loop { saved, .. }) => lmask = saved,
                            _ => unreachable!(),
                        }
                        pc = *exit as usize;
                        continue;
                    }
                    lmask = m;
                }
                Op::WhileJump { head } => {
                    pc = *head as usize;
                    continue;
                }
                Op::LoadG {
                    dst,
                    buf,
                    idx,
                    site,
                } => {
                    self.load_global::<TIMED>(*dst, *buf, *idx, *site, mask)?;
                }
                Op::StoreCheck { buf, idx, site } => {
                    if TIMED {
                        self.acc.stats.stores += 1;
                    }
                    self.global_check::<TIMED>(*buf, *idx, *site, mask)?;
                }
                Op::StoreG { buf, idx, val } => {
                    self.store_global::<TIMED>(*buf, *idx, *val, mask);
                }
                Op::AtomicApply {
                    op,
                    buf,
                    idx,
                    val,
                    cmp,
                    old,
                } => {
                    self.atomic_apply::<TIMED>(*op, *buf, *idx, *val, *cmp, *old, mask)?;
                }
                Op::LoadS { dst, idx } => {
                    self.shared_access::<TIMED>(*idx, Some(*dst), None, mask)?;
                }
                Op::StoreS { idx, val } => {
                    self.shared_access::<TIMED>(*idx, None, Some(*val), mask)?;
                }
                Op::Ret => {
                    *self.returned |= mask;
                }
                Op::Sync => {
                    if TIMED {
                        self.acc.stats.syncs += 1;
                        self.acc.issue_cycles += self.g.cfg.sync_cycles;
                        // Happens-before edge: everything this warp did
                        // before the sync is ordered before everything
                        // any warp does after it.
                        *self.epoch += 1;
                    }
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

/// Runs one per-warp leaf prologue (cost-free; all 32 lanes written
/// unconditionally — inactive lanes' values are never observed).
fn run_prologue(bc: &Bytecode, g: &GridCtx<'_>, block_idx: u32, warp_base: u32, vr: &mut [u32]) {
    for init in &bc.prologue {
        match *init {
            LeafInit::Imm { dst, val } => {
                let base = dst as usize * WARP as usize;
                vr[base..base + WARP as usize].fill(val);
            }
            LeafInit::Param { dst, slot } => {
                let base = dst as usize * WARP as usize;
                vr[base..base + WARP as usize].fill(g.scalars[slot as usize]);
            }
            LeafInit::Special { dst, s } => {
                let base = dst as usize * WARP as usize;
                for lane in 0..WARP {
                    vr[base + lane as usize] = special_value(s, g, block_idx, warp_base, lane);
                }
            }
        }
    }
}

/// Executes one block of the launch on the bytecode engine, reusing
/// `scratch` between calls. `timed` selects the timed or fast-functional
/// driver; `log` collects the access records that can race when race
/// detection is on (timed only).
pub(crate) fn run_block(
    g: &GridCtx<'_>,
    bc: &Bytecode,
    block_idx: u32,
    scratch: &mut BcScratch,
    log: Option<&mut RaceLog>,
    timed: bool,
) -> Result<BlockCost, SimError> {
    if timed {
        run_block_impl::<true>(g, bc, block_idx, scratch, log)
    } else {
        run_block_impl::<false>(g, bc, block_idx, scratch, log)
    }
}

fn run_block_impl<const TIMED: bool>(
    g: &GridCtx<'_>,
    bc: &Bytecode,
    block_idx: u32,
    scratch: &mut BcScratch,
    mut log: Option<&mut RaceLog>,
) -> Result<BlockCost, SimError> {
    let warps = g.cfg.warps_for(g.block_dim).max(1);
    let vregs_per_warp = bc.num_vregs as usize * WARP as usize;
    scratch.vregs.clear();
    scratch.vregs.resize(vregs_per_warp * warps as usize, 0);
    scratch.shared.clear();
    scratch.shared.resize(g.kernel.shared_words as usize, 0);
    scratch.returned.clear();
    scratch.returned.resize(warps as usize, 0);
    scratch.epochs.clear();
    scratch.epochs.resize(warps as usize, 0);
    scratch.seqs.clear();
    scratch.seqs.resize(warps as usize, 0);
    // Pattern memos survive across the blocks of a launch (entries stay
    // valid: one launch, one bytecode).
    scratch
        .coalesce
        .resize(bc.num_sites as usize, PatternCache::default());

    let mut cost = BlockCost::default();
    for (pi, phase) in bc.phases.iter().enumerate() {
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
            let vr = &mut scratch.vregs
                [w as usize * vregs_per_warp..(w as usize + 1) * vregs_per_warp];
            if pi == 0 {
                run_prologue(bc, g, block_idx, warp_base, vr);
            }
            let mut ctx = WarpExec {
                g,
                bc,
                block_idx,
                warp_base,
                vr,
                shared: &mut scratch.shared,
                returned: &mut scratch.returned[w as usize],
                cost: &mut cost,
                acc: BlockCost::default(),
                epoch: &mut scratch.epochs[w as usize],
                seq: &mut scratch.seqs[w as usize],
                log: log.as_deref_mut(),
                frames: &mut scratch.frames,
                coalesce: &mut scratch.coalesce,
            };
            ctx.exec::<TIMED>(&phase.ops, init_mask)?;
        }
        if let Some(bar) = &phase.barrier {
            apply_barrier::<TIMED>(g, bc, block_idx, bar, scratch, warps, &mut cost)?;
            // A block-wide collective synchronizes all warps: re-align
            // the epochs past the highest any warp reached (warps that
            // returned early skipped their in-segment syncs).
            if TIMED {
                let next = scratch.epochs.iter().copied().max().unwrap_or(0) + 1;
                scratch.epochs.iter_mut().for_each(|e| *e = next);
            }
        }
    }
    Ok(cost)
}

/// Applies a block-wide collective across all warps' live lanes —
/// contributions in thread order, returned lanes contributing the
/// identity, results written back to every participating thread.
fn apply_barrier<const TIMED: bool>(
    g: &GridCtx<'_>,
    bc: &Bytecode,
    block_idx: u32,
    bar: &BarrierCode,
    scratch: &mut BcScratch,
    warps: u32,
    cost: &mut BlockCost,
) -> Result<(), SimError> {
    let vregs_per_warp = bc.num_vregs as usize * WARP as usize;
    // Gather contributions in thread order.
    let mut contributions: Vec<(u32, u32, u32)> = Vec::with_capacity(g.block_dim as usize);
    for w in 0..warps {
        let warp_base = w * WARP;
        let lanes_in_warp = (g.block_dim.saturating_sub(warp_base)).min(WARP);
        let returned = scratch.returned[w as usize];
        let vr = &scratch.vregs[w as usize * vregs_per_warp..(w as usize + 1) * vregs_per_warp];
        for lane in 0..lanes_in_warp {
            let alive = returned & (1 << lane) == 0;
            let v = if alive {
                eval_expr(g, block_idx, warp_base, vr, &bar.value, lane)?
            } else {
                match bar.op {
                    BarrierOp::ReduceMin => u32::MAX,
                    BarrierOp::ReduceAdd | BarrierOp::ScanExclAdd => 0,
                }
            };
            contributions.push((w, lane, v));
        }
    }
    // Compute per-thread results.
    let results: Vec<u32> = match bar.op {
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
        let base = w as usize * vregs_per_warp;
        scratch.vregs[base + bar.dst as usize * WARP as usize + lane as usize] = r;
    }
    if TIMED {
        // Analytic cost: a log-depth shared-memory tree with a sync per
        // level, issued once per warp per level (what a hand-written
        // reduction costs).
        let levels = (32 - (g.block_dim.max(2) - 1).leading_zeros()) as u64;
        let per_level = warps as u64 * 3 + g.cfg.sync_cycles;
        cost.issue_cycles += levels * per_level;
        cost.stats.barriers += 1;
        cost.stats.instructions += levels * warps as u64 * 3;
        cost.stats.active_lane_instructions += levels * warps as u64 * 3 * WARP as u64 / 2;
        cost.stats.syncs += levels;
        cost.stats.shared_accesses += levels * warps as u64 * 2;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Equivalence property tests: bytecode ≡ interpreter
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::exec::interp;
    use crate::ir::builder::KernelBuilder;
    use crate::mem::global::GlobalMemory;
    use crate::mem::race::{analyze, RaceClass, RaceReport};

    /// What one equivalence run leaves behind (shared by both engines).
    struct Equiv {
        costs: Vec<BlockCost>,
        mem: Vec<Vec<u32>>,
        /// The bytecode engine's race log, sorted by location.
        log: Vec<AccessRecord>,
        races: RaceReport,
    }

    /// True when a plain load of `r`'s word can race in `kernel`: its slot
    /// (or shared memory) is stored to or atomically updated somewhere in
    /// the body. Restates the log filter from the IR, independently of
    /// the compiled [`Writes`].
    fn load_can_race(kernel: &Kernel, r: &AccessRecord) -> bool {
        let mut racy = false;
        for s in &kernel.body {
            s.visit(&mut |s| {
                racy |= match s {
                    Stmt::Store { buf, .. } | Stmt::Atomic { buf, .. } => buf.0 as u16 == r.buf,
                    Stmt::SharedStore { .. } => r.buf == SHARED_SLOT,
                    _ => false,
                }
            });
        }
        racy
    }

    /// Runs `kernel` under both engines on identical memory images and
    /// asserts bit-identical buffers and per-block costs. The bytecode
    /// race log must equal, record for record, the interpreter's full log
    /// with the loads that cannot race removed, and both logs must give
    /// equal race reports.
    fn assert_equiv(
        kernel: &Kernel,
        bufs_init: &[Vec<u32>],
        scalars: &[u32],
        grid_dim: u32,
        block_dim: u32,
    ) -> Equiv {
        type EquivRun = (Vec<BlockCost>, Vec<Vec<u32>>, Vec<AccessRecord>);
        let cfg = DeviceConfig::tesla_c2070();
        let run = |engine: &str| -> Result<EquivRun, SimError> {
            let mut mem = GlobalMemory::new();
            let ptrs: Vec<_> = bufs_init
                .iter()
                .enumerate()
                .map(|(i, b)| mem.alloc_from_slice(format!("b{i}"), b))
                .collect();
            let bufs = ptrs.iter().map(|&p| mem.buffer(p).unwrap()).collect();
            let g = GridCtx {
                cfg: &cfg,
                kernel,
                bufs,
                scalars,
                grid_dim,
                block_dim,
            };
            let bc = compile(kernel);
            let mut log = RaceLog::new(&ptrs, &bc.writes);
            let mut costs = Vec::new();
            if engine == "interp" {
                let mut scratch = interp::Scratch::default();
                for b in 0..grid_dim {
                    costs.push(interp::run_block(&g, b, &mut scratch, Some(&mut log))?);
                }
            } else {
                let mut scratch = BcScratch::default();
                for b in 0..grid_dim {
                    costs.push(run_block(&g, &bc, b, &mut scratch, Some(&mut log), true)?);
                }
            }
            drop(g);
            let imgs = ptrs.iter().map(|&p| mem.read(p).unwrap()).collect();
            Ok((costs, imgs, log.records))
        };
        let (ci, mi, mut li) = run("interp").expect("interpreter run succeeds");
        let (cb, mb, mut lb) = run("bytecode").expect("bytecode run succeeds");
        assert_eq!(mi, mb, "output buffers differ for '{}'", kernel.name);
        assert_eq!(ci, cb, "block costs differ for '{}'", kernel.name);
        let filtered: Vec<AccessRecord> = li
            .iter()
            .copied()
            .filter(|r| r.kind != AccessKind::Read || load_can_race(kernel, r))
            .collect();
        assert_eq!(filtered, lb, "race logs differ for '{}'", kernel.name);
        let labels: Vec<String> = (0..bufs_init.len()).map(|i| format!("b{i}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let races = analyze(&kernel.name, &labels, &mut lb);
        assert_eq!(
            analyze(&kernel.name, &labels, &mut li),
            races,
            "race reports differ for '{}'",
            kernel.name
        );

        // Fast-functional: same buffers, zero cost.
        let mut mem = GlobalMemory::new();
        let ptrs: Vec<_> = bufs_init
            .iter()
            .enumerate()
            .map(|(i, b)| mem.alloc_from_slice(format!("b{i}"), b))
            .collect();
        let bufs = ptrs.iter().map(|&p| mem.buffer(p).unwrap()).collect();
        let g = GridCtx {
            cfg: &cfg,
            kernel,
            bufs,
            scalars,
            grid_dim,
            block_dim,
        };
        let bc = compile(kernel);
        let mut scratch = BcScratch::default();
        for b in 0..grid_dim {
            let c = run_block(&g, &bc, b, &mut scratch, None, false)
                .expect("functional run succeeds");
            assert_eq!(c, BlockCost::default(), "functional driver charges cost");
        }
        drop(g);
        let mf: Vec<Vec<u32>> = ptrs.iter().map(|&p| mem.read(p).unwrap()).collect();
        assert_eq!(mi, mf, "functional buffers differ for '{}'", kernel.name);

        Equiv {
            costs: ci,
            mem: mi,
            log: lb,
            races,
        }
    }

    fn trap_equiv(kernel: &Kernel, bufs_init: &[Vec<u32>], scalars: &[u32], block_dim: u32) {
        let cfg = DeviceConfig::tesla_c2070();
        let run = |engine: &str, timed: bool| -> Result<(), SimError> {
            let mut mem = GlobalMemory::new();
            let ptrs: Vec<_> = bufs_init
                .iter()
                .enumerate()
                .map(|(i, b)| mem.alloc_from_slice(format!("b{i}"), b))
                .collect();
            let bufs = ptrs.iter().map(|&p| mem.buffer(p).unwrap()).collect();
            let g = GridCtx {
                cfg: &cfg,
                kernel,
                bufs,
                scalars,
                grid_dim: 1,
                block_dim,
            };
            if engine == "interp" {
                interp::run_block(&g, 0, &mut interp::Scratch::default(), None)?;
            } else {
                let bc = compile(kernel);
                run_block(&g, &bc, 0, &mut BcScratch::default(), None, timed)?;
            }
            Ok(())
        };
        let ei = run("interp", true);
        let eb = run("bytecode", true);
        let ef = run("bytecode", false);
        assert_eq!(
            ei.is_err(),
            eb.is_err(),
            "trap existence differs for '{}'",
            kernel.name
        );
        assert_eq!(
            ei.is_err(),
            ef.is_err(),
            "functional trap existence differs for '{}'",
            kernel.name
        );
    }

    #[test]
    fn straight_line_assign_store() {
        let mut k = KernelBuilder::new("straight");
        let buf = k.buf_param();
        let n = k.scalar_param();
        let tid = k.global_thread_id();
        k.if_(tid.clone().lt(n), |k| {
            let v = k.load(buf, tid.clone());
            k.store(buf, tid.clone(), v.mul(3u32).add(7u32));
        });
        let kernel = k.build().unwrap();
        let init: Vec<u32> = (0..100).collect();
        let m = assert_equiv(&kernel, &[init], &[100], 4, 32).mem;
        assert_eq!(m[0][5], 5 * 3 + 7);
    }

    #[test]
    fn divergent_if_else_nested() {
        let mut k = KernelBuilder::new("diverge");
        let buf = k.buf_param();
        let tid = k.thread_idx();
        k.if_else(
            tid.clone().rem(2u32).eq(0u32),
            |k| {
                k.if_(tid.clone().lt(8u32), |k| {
                    k.store(buf, tid.clone(), 100u32);
                });
            },
            |k| {
                k.store(buf, tid.clone(), 200u32);
            },
        );
        let kernel = k.build().unwrap();
        let costs = assert_equiv(&kernel, &[vec![0; 32]], &[], 1, 32).costs;
        assert!(costs[0].stats.divergent_branches >= 1);
    }

    #[test]
    fn while_loop_with_return_inside() {
        let mut k = KernelBuilder::new("loopret");
        let buf = k.buf_param();
        let tid = k.thread_idx();
        let i = k.reg();
        k.assign(i, 0u32);
        k.while_(Expr::from(i).lt(tid.clone().add(1u32)), |k| {
            k.if_(Expr::from(i).eq(5u32), |k| {
                k.ret();
            });
            k.atomic_add(buf, tid.clone(), 1u32);
            k.assign(i, Expr::from(i).add(1u32));
        });
        k.store(buf, tid.clone().add(32u32), Expr::from(i));
        let kernel = k.build().unwrap();
        assert_equiv(&kernel, &[vec![0; 64]], &[], 1, 32);
    }

    #[test]
    fn atomics_all_ops_with_conflicts() {
        for (name, which) in [
            ("a_add", 0u32),
            ("a_min", 1),
            ("a_max", 2),
            ("a_exch", 3),
            ("a_cas", 4),
            ("a_fadd", 5),
        ] {
            let mut k = KernelBuilder::new(name);
            let buf = k.buf_param();
            let tid = k.thread_idx();
            // Half the lanes hit cell 0 (conflicts), half spread out.
            let idx = tid.clone().rem(2u32).mul(tid.clone());
            let old = match which {
                0 => k.atomic_add(buf, idx, tid.clone().add(1u32)),
                1 => k.atomic_min(buf, idx, tid.clone()),
                2 => k.atomic_max(buf, idx, tid.clone()),
                3 => k.atomic_exch(buf, idx, tid.clone()),
                4 => k.atomic_cas(buf, idx, 0u32, tid.clone().add(9u32)),
                5 => k.atomic_fadd(buf, idx, Expr::from(1u32).u2f()),
                _ => unreachable!(),
            };
            k.store(buf, tid.clone().add(40u32), old);
            let kernel = k.build().unwrap();
            assert_equiv(&kernel, &[vec![0; 80]], &[], 1, 32);
        }
    }

    #[test]
    fn shared_memory_and_sync() {
        let mut k = KernelBuilder::new("smem");
        let buf = k.buf_param();
        k.shared_alloc(64);
        let tid = k.thread_idx();
        k.shared_store(tid.clone(), tid.clone().mul(2u32));
        k.sync_threads();
        let v = k.shared_load(Expr::from(63u32).sub(tid.clone()));
        k.store(buf, tid.clone(), v);
        let kernel = k.build().unwrap();
        assert_equiv(&kernel, &[vec![0; 64]], &[], 1, 64);
    }

    #[test]
    fn barriers_reduce_and_scan_with_returned_lanes() {
        for (name, which) in [("b_min", 0u32), ("b_add", 1), ("b_scan", 2)] {
            let mut k = KernelBuilder::new(name);
            let buf = k.buf_param();
            let tid = k.thread_idx();
            k.if_(tid.clone().ge(48u32), |k| {
                k.ret();
            });
            let dst = match which {
                0 => k.block_reduce_min(tid.clone().add(10u32)),
                1 => k.block_reduce_add(tid.clone()),
                2 => k.block_scan_excl_add(1u32),
                _ => unreachable!(),
            };
            k.store(buf, tid.clone(), dst);
            let kernel = k.build().unwrap();
            assert_equiv(&kernel, &[vec![0; 64]], &[], 1, 64);
        }
    }

    #[test]
    fn select_lazy_arms_do_not_trap() {
        // tid / (tid % 2): traps eagerly on odd lanes' neighbors; the
        // Select guards it, so the interpreter never evaluates the
        // trapping arm. The bytecode must agree (EvalTree fallback).
        let mut k = KernelBuilder::new("sel_guard");
        let buf = k.buf_param();
        let tid = k.thread_idx();
        let guard = tid.clone().rem(2u32);
        let v = guard
            .clone()
            .select(tid.clone().div(guard.clone()), 7u32);
        k.store(buf, tid.clone(), v);
        let kernel = k.build().unwrap();
        assert_equiv(&kernel, &[vec![0; 32]], &[], 1, 32);
    }

    #[test]
    fn trap_existence_matches() {
        // Unconditional division by zero.
        let mut k = KernelBuilder::new("div0");
        let buf = k.buf_param();
        let tid = k.thread_idx();
        k.store(buf, tid.clone(), tid.clone().div(0u32));
        trap_equiv(&k.build().unwrap(), &[vec![0; 32]], &[], 32);

        // Out-of-bounds store.
        let mut k = KernelBuilder::new("oob");
        let buf = k.buf_param();
        let tid = k.thread_idx();
        k.store(buf, tid.clone().add(1000u32), 1u32);
        trap_equiv(&k.build().unwrap(), &[vec![0; 32]], &[], 32);

        // Shared out-of-bounds.
        let mut k = KernelBuilder::new("soob");
        k.buf_param();
        k.shared_alloc(4);
        let tid = k.thread_idx();
        k.shared_store(tid.clone().add(100u32), 1u32);
        trap_equiv(&k.build().unwrap(), &[vec![0; 4]], &[], 32);
    }

    #[test]
    fn partial_warp_and_multi_warp_blocks() {
        let mut k = KernelBuilder::new("partial");
        let buf = k.buf_param();
        let n = k.scalar_param();
        let tid = k.global_thread_id();
        k.if_(tid.clone().lt(n), |k| {
            k.store(buf, tid.clone(), tid.clone().add(1u32));
        });
        let kernel = k.build().unwrap();
        for (grid, block, n) in [(1u32, 33u32, 33u32), (3, 50, 140), (2, 192, 383)] {
            assert_equiv(&kernel, &[vec![0; 400]], &[n], grid, block);
        }
    }

    #[test]
    fn uniform_vs_divergent_while_costs_match_interpreter() {
        let build = |uniform: bool| {
            let mut k = KernelBuilder::new(if uniform { "uni" } else { "div" });
            let buf = k.buf_param();
            let tid = k.thread_idx();
            let i = k.reg();
            k.assign(i, 0u32);
            let bound = if uniform {
                Expr::from(16u32)
            } else {
                tid.clone().rem(16u32).add(1u32)
            };
            k.while_(Expr::from(i).lt(bound), |k| {
                k.atomic_add(buf, 0u32, 1u32);
                k.assign(i, Expr::from(i).add(1u32));
            });
            let _ = tid;
            k.build().unwrap()
        };
        assert_equiv(&build(true), &[vec![0; 4]], &[], 1, 32);
        assert_equiv(&build(false), &[vec![0; 4]], &[], 1, 32);
    }

    #[test]
    fn float_pipeline_matches() {
        let mut k = KernelBuilder::new("floats");
        let buf = k.buf_param();
        let tid = k.thread_idx();
        let f = k.reg();
        k.assign(f, tid.clone().u2f());
        let v = Expr::from(f)
            .fmul(Expr::from(f))
            .fadd(Expr::from(2u32).u2f())
            .fdiv(Expr::from(3u32).u2f());
        k.store(buf, tid.clone(), v.f2u());
        let kernel = k.build().unwrap();
        assert_equiv(&kernel, &[vec![0; 32]], &[], 1, 32);
    }

    #[test]
    fn compiled_form_is_compact_and_memoized() {
        let mut k = KernelBuilder::new("memo");
        let buf = k.buf_param();
        let tid = k.thread_idx();
        k.store(buf, tid.clone(), tid.clone().add(1u32));
        let kernel = k.build().unwrap();
        let bc = kernel.bytecode();
        assert!(bc.op_count() > 0);
        let again = kernel.bytecode();
        assert!(std::ptr::eq(bc, again), "bytecode is compiled once");
        // A clone shares the memoized compilation.
        let clone = kernel.clone();
        assert!(std::ptr::eq(clone.bytecode(), bc));
        assert_eq!(kernel, clone);
    }

    #[test]
    fn read_only_csr_slots_leave_no_records() {
        // Per-node degree from CSR offsets, pulled through the edge array:
        // `offsets` and `edges` are never stored to, so their loads
        // cannot race and are not logged; the stores to `out` are.
        let mut k = KernelBuilder::new("csr_degree");
        let offsets = k.buf_param();
        let edges = k.buf_param();
        let out = k.buf_param();
        let n = k.scalar_param();
        let tid = k.global_thread_id();
        k.if_(tid.clone().lt(n), |k| {
            let lo = k.load(offsets, tid.clone());
            let hi = k.load(offsets, tid.clone().add(1u32));
            let first = k.load(edges, lo.clone());
            k.store(out, tid.clone(), hi.sub(lo).add(first));
        });
        let kernel = k.build().unwrap();
        assert_eq!(kernel.bytecode().writes.bufs, vec![false, false, true]);
        let offsets_init: Vec<u32> = (0..=64).map(|i| 2 * i).collect();
        let e = assert_equiv(
            &kernel,
            &[offsets_init, vec![1; 130], vec![0; 64]],
            &[64],
            2,
            32,
        );
        assert!(e
            .log
            .iter()
            .all(|r| r.buf == 2 && r.kind == AccessKind::Write));
        assert_eq!(e.log.len(), 64);
        assert_eq!(
            e.races,
            RaceReport {
                kernel: "csr_degree".into(),
                ..RaceReport::default()
            }
        );
    }

    #[test]
    fn loads_of_an_atomically_updated_slot_are_kept() {
        // The unordered-relaxation pattern: every thread reads dist[0] and
        // atomicMin-s it. The loads stay in the log, so the benign
        // read-vs-atomic race is still found.
        let mut k = KernelBuilder::new("relax");
        let dist = k.buf_param();
        let tid = k.global_thread_id();
        let d = k.load(dist, 0u32);
        k.atomic_min(dist, 0u32, d.min(tid));
        let kernel = k.build().unwrap();
        let e = assert_equiv(&kernel, &[vec![u32::MAX]], &[], 2, 32);
        assert_eq!(
            e.log.iter().filter(|r| r.kind == AccessKind::Read).count(),
            64
        );
        assert!(e.races.is_clean());
        assert_eq!(e.races.benign.len(), 1);
        assert_eq!(e.races.benign[0].class, RaceClass::ReadVsAtomic);
        assert_eq!(e.races.benign[0].buffer, "b0");
    }

    #[test]
    fn shared_loads_are_dropped_only_without_a_shared_store() {
        // Loads of never-stored shared memory (all zeros) cannot race.
        let mut k = KernelBuilder::new("smem_ro");
        let buf = k.buf_param();
        k.shared_alloc(32);
        let tid = k.thread_idx();
        let v = k.shared_load(tid.clone());
        k.store(buf, tid.clone(), v);
        let kernel = k.build().unwrap();
        assert!(!kernel.bytecode().writes.shared);
        let e = assert_equiv(&kernel, &[vec![7; 32]], &[], 1, 32);
        assert!(e.log.iter().all(|r| r.buf != SHARED_SLOT));

        // With a shared store, both the stores and the loads are logged.
        let mut k = KernelBuilder::new("smem_rw");
        let buf = k.buf_param();
        k.shared_alloc(64);
        let tid = k.thread_idx();
        k.shared_store(tid.clone(), tid.clone().mul(2u32));
        k.sync_threads();
        let v = k.shared_load(Expr::from(63u32).sub(tid.clone()));
        k.store(buf, tid.clone(), v);
        let kernel = k.build().unwrap();
        assert!(kernel.bytecode().writes.shared);
        let e = assert_equiv(&kernel, &[vec![0; 64]], &[], 1, 64);
        let shared = |kind| {
            e.log
                .iter()
                .filter(|r| r.buf == SHARED_SLOT && r.kind == kind)
                .count()
        };
        assert_eq!(shared(AccessKind::Write), 64);
        assert_eq!(shared(AccessKind::Read), 64);
    }
}
