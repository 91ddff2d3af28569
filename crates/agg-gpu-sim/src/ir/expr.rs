//! Pure per-lane expressions over 32-bit registers.
//!
//! All values are `u32` words, mirroring a GPU register file. Comparison
//! operators produce `0`/`1`. Arithmetic wraps (like hardware); the
//! saturating variants used by distance math are explicit operators so the
//! cost model can see them.

/// A virtual register index, local to one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u16);

/// A buffer parameter slot: the position of a device buffer in the launch
/// argument list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufSlot(pub u8);

/// Built-in per-lane identifiers (CUDA's `threadIdx` family, linearized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within the block.
    ThreadIdx,
    /// Block index within the grid.
    BlockIdx,
    /// Threads per block.
    BlockDim,
    /// Blocks in the grid.
    GridDim,
    /// Lane index within the warp.
    LaneId,
    /// `BlockIdx * BlockDim + ThreadIdx`.
    GlobalThreadId,
}

/// Binary operators. Comparisons are unsigned and yield 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binop {
    /// Wrapping addition.
    Add,
    /// Saturating addition (used for distance relaxation: `INF + w == INF`).
    SatAdd,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (traps on zero divisor).
    Div,
    /// Unsigned remainder (traps on zero divisor).
    Rem,
    /// Unsigned minimum.
    Min,
    /// Unsigned maximum.
    Max,
    /// Bitwise and (also the logical `and` over 0/1 values).
    And,
    /// Bitwise or (also the logical `or` over 0/1 values).
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount taken mod 32).
    Shl,
    /// Logical right shift (shift amount taken mod 32).
    Shr,
    /// Equality, yields 0/1.
    Eq,
    /// Inequality, yields 0/1.
    Ne,
    /// Unsigned less-than, yields 0/1.
    Lt,
    /// Unsigned less-or-equal, yields 0/1.
    Le,
    /// Unsigned greater-than, yields 0/1.
    Gt,
    /// Unsigned greater-or-equal, yields 0/1.
    Ge,
    /// IEEE-754 addition on bit-reinterpreted f32 operands.
    FAdd,
    /// IEEE-754 subtraction.
    FSub,
    /// IEEE-754 multiplication.
    FMul,
    /// IEEE-754 division (no trap: yields inf/NaN like hardware).
    FDiv,
    /// f32 less-than, yields 0/1 (false on NaN).
    FLt,
    /// f32 greater-or-equal, yields 0/1 (false on NaN).
    FGe,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unop {
    /// Bitwise complement.
    Not,
    /// Logical negation: `0 -> 1`, nonzero `-> 0`.
    LNot,
    /// Convert an unsigned integer to f32 bits (CUDA `u2f`).
    U2F,
    /// Truncate f32 bits to an unsigned integer (CUDA `f2u`, saturating,
    /// NaN -> 0).
    F2U,
}

/// A pure per-lane expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// 32-bit immediate.
    Imm(u32),
    /// Register read.
    Reg(Reg),
    /// Built-in lane identifier.
    Special(Special),
    /// Uniform scalar kernel parameter (slot index).
    Param(u8),
    /// Unary operation.
    Unop(Unop, Box<Expr>),
    /// Binary operation.
    Binop(Binop, Box<Expr>, Box<Expr>),
    /// Predicated select: `cond != 0 ? a : b`. Executes without divergence
    /// (models hardware predication), unlike an `if` statement.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl From<u32> for Expr {
    fn from(v: u32) -> Expr {
        Expr::Imm(v)
    }
}

impl From<Reg> for Expr {
    fn from(r: Reg) -> Expr {
        Expr::Reg(r)
    }
}

impl From<Special> for Expr {
    fn from(s: Special) -> Expr {
        Expr::Special(s)
    }
}

impl From<&Expr> for Expr {
    fn from(e: &Expr) -> Expr {
        e.clone()
    }
}

macro_rules! binop_method {
    ($(#[$doc:meta])* $name:ident, $op:ident) => {
        $(#[$doc])*
        pub fn $name(self, rhs: impl Into<Expr>) -> Expr {
            Expr::Binop(Binop::$op, Box::new(self), Box::new(rhs.into()))
        }
    };
}

// The builder methods deliberately mirror CUDA/C operator names (`add`,
// `div`, `not`, ...) rather than implementing the std operator traits:
// kernel expressions take `impl Into<Expr>` operands and never panic, so
// the DSL reads like device code instead of overloaded host arithmetic.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Immediate constructor (alias for `From<u32>`).
    pub fn imm(v: u32) -> Expr {
        Expr::Imm(v)
    }

    binop_method!(/// Wrapping addition.
        add, Add);
    binop_method!(/// Saturating addition.
        sat_add, SatAdd);
    binop_method!(/// Wrapping subtraction.
        sub, Sub);
    binop_method!(/// Wrapping multiplication.
        mul, Mul);
    binop_method!(/// Unsigned division (traps on zero).
        div, Div);
    binop_method!(/// Unsigned remainder (traps on zero).
        rem, Rem);
    binop_method!(/// Unsigned minimum.
        min, Min);
    binop_method!(/// Unsigned maximum.
        max, Max);
    binop_method!(/// Bitwise and.
        and, And);
    binop_method!(/// Bitwise or.
        or, Or);
    binop_method!(/// Bitwise xor.
        xor, Xor);
    binop_method!(/// Left shift.
        shl, Shl);
    binop_method!(/// Logical right shift.
        shr, Shr);
    binop_method!(/// Equality (0/1).
        eq, Eq);
    binop_method!(/// Inequality (0/1).
        ne, Ne);
    binop_method!(/// Unsigned less-than (0/1).
        lt, Lt);
    binop_method!(/// Unsigned less-or-equal (0/1).
        le, Le);
    binop_method!(/// Unsigned greater-than (0/1).
        gt, Gt);
    binop_method!(/// Unsigned greater-or-equal (0/1).
        ge, Ge);
    binop_method!(/// IEEE f32 addition on bit-reinterpreted operands.
        fadd, FAdd);
    binop_method!(/// IEEE f32 subtraction.
        fsub, FSub);
    binop_method!(/// IEEE f32 multiplication.
        fmul, FMul);
    binop_method!(/// IEEE f32 division.
        fdiv, FDiv);
    binop_method!(/// f32 less-than (0/1).
        flt, FLt);
    binop_method!(/// f32 greater-or-equal (0/1).
        fge, FGe);

    /// Bitwise complement.
    pub fn not(self) -> Expr {
        Expr::Unop(Unop::Not, Box::new(self))
    }

    /// Logical negation (0/1).
    pub fn lnot(self) -> Expr {
        Expr::Unop(Unop::LNot, Box::new(self))
    }

    /// Integer → f32 conversion.
    pub fn u2f(self) -> Expr {
        Expr::Unop(Unop::U2F, Box::new(self))
    }

    /// f32 → integer truncation.
    pub fn f2u(self) -> Expr {
        Expr::Unop(Unop::F2U, Box::new(self))
    }

    /// An f32 immediate, stored as its bit pattern.
    pub fn fimm(v: f32) -> Expr {
        Expr::Imm(v.to_bits())
    }

    /// Predicated select: `self != 0 ? a : b`.
    pub fn select(self, a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
        Expr::Select(Box::new(self), Box::new(a.into()), Box::new(b.into()))
    }

    /// Number of operator nodes — the issue-slot cost of evaluating this
    /// expression once per warp.
    pub fn op_count(&self) -> u64 {
        match self {
            Expr::Imm(_) | Expr::Reg(_) | Expr::Special(_) | Expr::Param(_) => 0,
            Expr::Unop(_, a) => 1 + a.op_count(),
            Expr::Binop(_, a, b) => 1 + a.op_count() + b.op_count(),
            Expr::Select(c, a, b) => 1 + c.op_count() + a.op_count() + b.op_count(),
        }
    }

    /// The largest register index read by this expression, if any.
    pub fn max_reg(&self) -> Option<u16> {
        match self {
            Expr::Reg(Reg(r)) => Some(*r),
            Expr::Imm(_) | Expr::Special(_) | Expr::Param(_) => None,
            Expr::Unop(_, a) => a.max_reg(),
            Expr::Binop(_, a, b) => a.max_reg().max(b.max_reg()),
            Expr::Select(c, a, b) => c.max_reg().max(a.max_reg()).max(b.max_reg()),
        }
    }

    /// The largest scalar-parameter slot read by this expression, if any.
    pub fn max_param(&self) -> Option<u8> {
        match self {
            Expr::Param(p) => Some(*p),
            Expr::Imm(_) | Expr::Reg(_) | Expr::Special(_) => None,
            Expr::Unop(_, a) => a.max_param(),
            Expr::Binop(_, a, b) => a.max_param().max(b.max_param()),
            Expr::Select(c, a, b) => c.max_param().max(a.max_param()).max(b.max_param()),
        }
    }
}

/// Applies `op` to two words, reporting division by zero as `None`.
pub(crate) fn apply_binop(op: Binop, a: u32, b: u32) -> Option<u32> {
    Some(match op {
        Binop::Add => a.wrapping_add(b),
        Binop::SatAdd => a.saturating_add(b),
        Binop::Sub => a.wrapping_sub(b),
        Binop::Mul => a.wrapping_mul(b),
        Binop::Div => {
            if b == 0 {
                return None;
            }
            a / b
        }
        Binop::Rem => {
            if b == 0 {
                return None;
            }
            a % b
        }
        Binop::Min => a.min(b),
        Binop::Max => a.max(b),
        Binop::And => a & b,
        Binop::Or => a | b,
        Binop::Xor => a ^ b,
        Binop::Shl => a.wrapping_shl(b),
        Binop::Shr => a.wrapping_shr(b),
        Binop::Eq => (a == b) as u32,
        Binop::Ne => (a != b) as u32,
        Binop::Lt => (a < b) as u32,
        Binop::Le => (a <= b) as u32,
        Binop::Gt => (a > b) as u32,
        Binop::Ge => (a >= b) as u32,
        Binop::FAdd => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
        Binop::FSub => (f32::from_bits(a) - f32::from_bits(b)).to_bits(),
        Binop::FMul => (f32::from_bits(a) * f32::from_bits(b)).to_bits(),
        Binop::FDiv => (f32::from_bits(a) / f32::from_bits(b)).to_bits(),
        Binop::FLt => (f32::from_bits(a) < f32::from_bits(b)) as u32,
        Binop::FGe => (f32::from_bits(a) >= f32::from_bits(b)) as u32,
    })
}

/// Applies a unary operator.
pub(crate) fn apply_unop(op: Unop, a: u32) -> u32 {
    match op {
        Unop::Not => !a,
        Unop::LNot => (a == 0) as u32,
        Unop::U2F => (a as f32).to_bits(),
        Unop::F2U => {
            let f = f32::from_bits(a);
            if f.is_nan() {
                0
            } else {
                f as u32 // saturating cast in Rust semantics
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_produce_expected_trees() {
        let e = Expr::imm(2).add(3u32).mul(Reg(0));
        assert_eq!(e.op_count(), 2);
        assert_eq!(e.max_reg(), Some(0));
        assert_eq!(e.max_param(), None);
    }

    #[test]
    fn apply_binop_semantics() {
        assert_eq!(apply_binop(Binop::Add, u32::MAX, 1), Some(0)); // wraps
        assert_eq!(apply_binop(Binop::SatAdd, u32::MAX, 1), Some(u32::MAX));
        assert_eq!(apply_binop(Binop::Sub, 0, 1), Some(u32::MAX));
        assert_eq!(apply_binop(Binop::Div, 7, 2), Some(3));
        assert_eq!(apply_binop(Binop::Div, 7, 0), None);
        assert_eq!(apply_binop(Binop::Rem, 7, 0), None);
        assert_eq!(apply_binop(Binop::Lt, 3, 4), Some(1));
        assert_eq!(apply_binop(Binop::Ge, 3, 4), Some(0));
        assert_eq!(apply_binop(Binop::Shl, 1, 33), Some(2)); // mod 32
        assert_eq!(apply_binop(Binop::Min, 9, 4), Some(4));
    }

    #[test]
    fn apply_unop_semantics() {
        assert_eq!(apply_unop(Unop::Not, 0), u32::MAX);
        assert_eq!(apply_unop(Unop::LNot, 0), 1);
        assert_eq!(apply_unop(Unop::LNot, 7), 0);
    }

    #[test]
    fn select_counts_as_one_op_plus_children() {
        let e = Expr::imm(1).select(Expr::imm(2).add(3u32), 4u32);
        assert_eq!(e.op_count(), 2);
    }

    #[test]
    fn float_ops_use_ieee_semantics_on_bits() {
        let f = |x: f32| x.to_bits();
        assert_eq!(apply_binop(Binop::FAdd, f(1.5), f(2.25)), Some(f(3.75)));
        assert_eq!(apply_binop(Binop::FMul, f(3.0), f(-2.0)), Some(f(-6.0)));
        assert_eq!(
            apply_binop(Binop::FDiv, f(1.0), f(0.0)),
            Some(f(f32::INFINITY))
        );
        assert_eq!(apply_binop(Binop::FLt, f(-1.0), f(1.0)), Some(1));
        assert_eq!(apply_binop(Binop::FGe, f(-1.0), f(1.0)), Some(0));
        // NaN compares false both ways.
        assert_eq!(apply_binop(Binop::FLt, f(f32::NAN), f(1.0)), Some(0));
        assert_eq!(apply_binop(Binop::FGe, f(f32::NAN), f(1.0)), Some(0));
    }

    #[test]
    fn float_conversions() {
        assert_eq!(apply_unop(Unop::U2F, 7), 7.0f32.to_bits());
        assert_eq!(apply_unop(Unop::F2U, 7.9f32.to_bits()), 7);
        assert_eq!(apply_unop(Unop::F2U, (-3.0f32).to_bits()), 0); // saturates
        assert_eq!(apply_unop(Unop::F2U, f32::NAN.to_bits()), 0);
        assert_eq!(apply_unop(Unop::F2U, 1e20f32.to_bits()), u32::MAX);
    }

    #[test]
    fn fimm_round_trips_bits() {
        assert_eq!(Expr::fimm(0.85), Expr::Imm(0.85f32.to_bits()));
    }

    #[test]
    fn max_param_traverses_tree() {
        let e = Expr::Param(3)
            .add(Expr::Param(1))
            .select(Expr::Param(5), 0u32);
        assert_eq!(e.max_param(), Some(5));
    }
}
