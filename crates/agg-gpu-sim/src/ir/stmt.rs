//! Statements: memory traffic, control flow, atomics, and block-wide
//! intrinsics.

use super::expr::{BufSlot, Expr, Reg};

/// Read-modify-write atomic operations on global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `old = *p; *p = old + v` (wrapping).
    Add,
    /// `old = *p; *p = min(old, v)` (unsigned).
    Min,
    /// `old = *p; *p = max(old, v)` (unsigned).
    Max,
    /// `old = *p; *p = v`.
    Exch,
    /// `old = *p; if old == cmp { *p = v }`.
    Cas,
    /// `old = *p; *p = f32(old) + f32(v)` — IEEE float accumulation on
    /// bit-reinterpreted words (Fermi's native `atomicAdd(float*)`).
    FAdd,
}

/// Block-wide collective intrinsics. These stand in for the
/// `__syncthreads()`-based shared-memory protocols real kernels write by
/// hand (tree reductions, prefix scans); the interpreter executes them as
/// barriers with an analytic log-depth cost (see `DESIGN.md` §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOp {
    /// Every lane in the block receives the minimum of `value` over all
    /// lanes in the block (inactive/returned lanes contribute `u32::MAX`).
    ReduceMin,
    /// Every lane receives the sum over all lanes (inactive lanes
    /// contribute 0, wrapping).
    ReduceAdd,
    /// Every lane receives the *exclusive* prefix sum of `value` in lane
    /// order across the whole block (inactive lanes contribute 0).
    ScanExclAdd,
}

/// A kernel statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = expr`.
    Assign(Reg, Expr),
    /// Global memory read: `dst = buf[index]` (word indices).
    Load {
        /// Destination register.
        dst: Reg,
        /// Buffer parameter slot.
        buf: BufSlot,
        /// Word index expression.
        index: Expr,
    },
    /// Global memory write: `buf[index] = value`.
    Store {
        /// Buffer parameter slot.
        buf: BufSlot,
        /// Word index expression.
        index: Expr,
        /// Value expression.
        value: Expr,
    },
    /// Atomic read-modify-write on global memory. The pre-image is written
    /// to `old` when requested.
    Atomic {
        /// The operation.
        op: AtomicOp,
        /// Buffer parameter slot.
        buf: BufSlot,
        /// Word index expression.
        index: Expr,
        /// Operand value.
        value: Expr,
        /// CAS comparand (only for [`AtomicOp::Cas`]).
        compare: Option<Expr>,
        /// Register receiving the old value, if any.
        old: Option<Reg>,
    },
    /// Shared memory read: `dst = shared[index]`.
    SharedLoad {
        /// Destination register.
        dst: Reg,
        /// Word index into the block's shared allocation.
        index: Expr,
    },
    /// Shared memory write: `shared[index] = value`.
    SharedStore {
        /// Word index into the block's shared allocation.
        index: Expr,
        /// Value expression.
        value: Expr,
    },
    /// Two-sided branch. A warp whose active lanes disagree on `cond`
    /// executes both sides under complementary masks.
    If {
        /// Branch predicate (nonzero = then).
        cond: Expr,
        /// Then-side body.
        then_: Vec<Stmt>,
        /// Else-side body (may be empty).
        else_: Vec<Stmt>,
    },
    /// Loop while `cond` is nonzero. A lane leaves the loop when its own
    /// condition turns zero; the warp keeps issuing until all lanes left.
    While {
        /// Loop predicate.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Deactivate the executing lanes for the rest of the kernel (early
    /// exit, like `return` in CUDA C).
    Return,
    /// Block-wide barrier (cost marker; ordering within a block is already
    /// sequential in the interpreter).
    SyncThreads,
    /// Block-wide collective: result lands in `dst` on every lane.
    /// Top-level only (validated).
    Barrier {
        /// The collective operation.
        op: BarrierOp,
        /// Per-lane contribution.
        value: Expr,
        /// Destination register.
        dst: Reg,
    },
}

impl Stmt {
    /// Walks the statement tree, calling `f` on every statement.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::If { then_, else_, .. } => {
                for s in then_ {
                    s.visit(f);
                }
                for s in else_ {
                    s.visit(f);
                }
            }
            Stmt::While { body, .. } => {
                for s in body {
                    s.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Largest register index mentioned (read or written) by this statement
    /// subtree.
    pub fn max_reg(&self) -> Option<u16> {
        let mut m: Option<u16> = None;
        self.visit(&mut |s| {
            let local = match s {
                Stmt::Assign(Reg(r), e) => Some(*r).max(e.max_reg()),
                Stmt::Load {
                    dst: Reg(r), index, ..
                } => Some(*r).max(index.max_reg()),
                Stmt::Store { index, value, .. } => index.max_reg().max(value.max_reg()),
                Stmt::Atomic {
                    index,
                    value,
                    compare,
                    old,
                    ..
                } => index
                    .max_reg()
                    .max(value.max_reg())
                    .max(compare.as_ref().and_then(|c| c.max_reg()))
                    .max(old.map(|Reg(r)| r)),
                Stmt::SharedLoad { dst: Reg(r), index } => Some(*r).max(index.max_reg()),
                Stmt::SharedStore { index, value } => index.max_reg().max(value.max_reg()),
                Stmt::If { cond, .. } => cond.max_reg(),
                Stmt::While { cond, .. } => cond.max_reg(),
                Stmt::Return | Stmt::SyncThreads => None,
                Stmt::Barrier {
                    value, dst: Reg(r), ..
                } => Some(*r).max(value.max_reg()),
            };
            m = m.max(local);
        });
        m
    }

    /// Largest scalar-parameter slot mentioned by this statement subtree.
    pub fn max_param(&self) -> Option<u8> {
        let mut m: Option<u8> = None;
        self.visit(&mut |s| {
            let local = match s {
                Stmt::Assign(_, e) => e.max_param(),
                Stmt::Load { index, .. } => index.max_param(),
                Stmt::Store { index, value, .. } => index.max_param().max(value.max_param()),
                Stmt::Atomic {
                    index,
                    value,
                    compare,
                    ..
                } => index
                    .max_param()
                    .max(value.max_param())
                    .max(compare.as_ref().and_then(|c| c.max_param())),
                Stmt::SharedLoad { index, .. } => index.max_param(),
                Stmt::SharedStore { index, value } => index.max_param().max(value.max_param()),
                Stmt::If { cond, .. } => cond.max_param(),
                Stmt::While { cond, .. } => cond.max_param(),
                Stmt::Return | Stmt::SyncThreads => None,
                Stmt::Barrier { value, .. } => value.max_param(),
            };
            m = m.max(local);
        });
        m
    }

    /// Largest buffer slot mentioned by this statement subtree.
    pub fn max_buf(&self) -> Option<u8> {
        let mut m: Option<u8> = None;
        self.visit(&mut |s| {
            let local = match s {
                Stmt::Load {
                    buf: BufSlot(b), ..
                }
                | Stmt::Store {
                    buf: BufSlot(b), ..
                }
                | Stmt::Atomic {
                    buf: BufSlot(b), ..
                } => Some(*b),
                _ => None,
            };
            m = m.max(local);
        });
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_reaches_nested_statements() {
        let s = Stmt::If {
            cond: Expr::imm(1),
            then_: vec![Stmt::While {
                cond: Expr::imm(0),
                body: vec![Stmt::Return],
            }],
            else_: vec![Stmt::SyncThreads],
        };
        let mut n = 0;
        s.visit(&mut |_| n += 1);
        assert_eq!(n, 4); // if, while, return, sync
    }

    #[test]
    fn max_reg_sees_destinations_and_sources() {
        let s = Stmt::Load {
            dst: Reg(7),
            buf: BufSlot(0),
            index: Expr::Reg(Reg(3)),
        };
        assert_eq!(s.max_reg(), Some(7));
        let s = Stmt::Store {
            buf: BufSlot(1),
            index: Expr::Reg(Reg(9)),
            value: Expr::imm(0),
        };
        assert_eq!(s.max_reg(), Some(9));
        let s = Stmt::Atomic {
            op: AtomicOp::Cas,
            buf: BufSlot(0),
            index: Expr::imm(0),
            value: Expr::imm(1),
            compare: Some(Expr::Reg(Reg(12))),
            old: Some(Reg(4)),
        };
        assert_eq!(s.max_reg(), Some(12));
    }

    #[test]
    fn max_buf_and_param_traverse_nesting() {
        let s = Stmt::If {
            cond: Expr::Param(2),
            then_: vec![Stmt::Load {
                dst: Reg(0),
                buf: BufSlot(5),
                index: Expr::Param(6),
            }],
            else_: vec![],
        };
        assert_eq!(s.max_buf(), Some(5));
        assert_eq!(s.max_param(), Some(6));
    }
}
