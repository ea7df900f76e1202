//! IR instructions: three-address code over virtual registers.
//!
//! The IR is deliberately *not* SSA — it models the Multiflow-descended
//! compilers of the paper's era, where superblock scheduling and linear-scan
//! allocation operate on plain virtual-register code. Arithmetic opcodes are
//! shared with the machine ISA ([`asip_isa::Opcode`]): a customized-family
//! toolchain compiles to the family's own operation repertoire, so a separate
//! IR opcode set would only add a translation layer that could drift.

use asip_isa::Opcode;
use std::fmt;

/// A virtual register. The pool is unbounded; register allocation maps these
/// onto the target's physical file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A value operand: virtual register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Val {
    /// Read a virtual register.
    Reg(VReg),
    /// A 32-bit constant.
    Imm(i32),
}

impl Val {
    /// The register, if this is one.
    pub fn reg(self) -> Option<VReg> {
        match self {
            Val::Reg(r) => Some(r),
            Val::Imm(_) => None,
        }
    }

    /// The constant, if this is one.
    pub fn imm(self) -> Option<i32> {
        match self {
            Val::Reg(_) => None,
            Val::Imm(v) => Some(v),
        }
    }
}

impl From<VReg> for Val {
    fn from(r: VReg) -> Val {
        Val::Reg(r)
    }
}

impl From<i32> for Val {
    fn from(v: i32) -> Val {
        Val::Imm(v)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Reg(r) => write!(f, "{r}"),
            Val::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Identifier of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifier of a function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifier of a global data object within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Identifier of a stack-allocated local array within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalSlot(pub u32);

/// Base of a memory address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrBase {
    /// A computed word address in a register.
    Reg(VReg),
    /// A module global.
    Global(GlobalId),
    /// A function-local stack array.
    Local(LocalSlot),
}

/// A memory address: base plus constant word offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// The base.
    pub base: AddrBase,
    /// Constant word offset added to the base.
    pub off: i32,
}

impl Addr {
    /// Address of a global's first word.
    pub fn global(g: GlobalId) -> Addr {
        Addr {
            base: AddrBase::Global(g),
            off: 0,
        }
    }

    /// Address of a local array's first word.
    pub fn local(s: LocalSlot) -> Addr {
        Addr {
            base: AddrBase::Local(s),
            off: 0,
        }
    }

    /// Address held in a register.
    pub fn reg(r: VReg) -> Addr {
        Addr {
            base: AddrBase::Reg(r),
            off: 0,
        }
    }

    /// Conservative may-alias test between two addresses.
    ///
    /// Distinct globals never alias; distinct locals never alias; a global
    /// never aliases a local; same-base accesses with different constant
    /// offsets don't alias. Anything involving a computed base may alias
    /// everything (a register can legitimately point anywhere, including
    /// into a global or local array).
    pub fn may_alias(&self, other: &Addr) -> bool {
        use AddrBase::*;
        match (self.base, other.base) {
            (Global(a), Global(b)) => {
                if a != b {
                    false
                } else {
                    self.off == other.off
                }
            }
            (Local(a), Local(b)) => {
                if a != b {
                    false
                } else {
                    self.off == other.off
                }
            }
            (Global(_), Local(_)) | (Local(_), Global(_)) => false,
            _ => true,
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            AddrBase::Reg(r) => write!(f, "[{r}+{}]", self.off),
            AddrBase::Global(g) => write!(f, "[g{}+{}]", g.0, self.off),
            AddrBase::Local(s) => write!(f, "[local{}+{}]", s.0, self.off),
        }
    }
}

/// A non-terminating IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Two-operand arithmetic: `dst = op a, b`.
    Bin {
        /// Arithmetic opcode (must satisfy `num_srcs() == 2`).
        op: Opcode,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: Val,
        /// Right operand.
        b: Val,
    },
    /// One-operand arithmetic (`Abs`, `Sxtb`, `Sxth`, `Mov`).
    Un {
        /// Unary opcode.
        op: Opcode,
        /// Destination.
        dst: VReg,
        /// Operand.
        a: Val,
    },
    /// `dst = if c != 0 { a } else { b }`.
    Select {
        /// Destination.
        dst: VReg,
        /// Condition.
        c: Val,
        /// Value when true.
        a: Val,
        /// Value when false.
        b: Val,
    },
    /// Materialize an address: `dst = &base + off`.
    Lea {
        /// Destination.
        dst: VReg,
        /// The address taken.
        addr: Addr,
    },
    /// `dst = mem[addr]`.
    Load {
        /// Destination.
        dst: VReg,
        /// Address read.
        addr: Addr,
    },
    /// `mem[addr] = val`.
    Store {
        /// Value written.
        val: Val,
        /// Address written.
        addr: Addr,
    },
    /// Direct call: `dst = func(args...)`.
    Call {
        /// Destination for the return value, if used.
        dst: Option<VReg>,
        /// Callee.
        func: FuncId,
        /// Arguments (word-sized each).
        args: Vec<Val>,
    },
    /// Application-specific operation selected by the ISE engine.
    Custom {
        /// Index into the module's custom-op library.
        id: u16,
        /// Destinations (1 or 2).
        dsts: Vec<VReg>,
        /// Arguments.
        args: Vec<Val>,
    },
    /// Append `val` to the program's output stream.
    Emit {
        /// Value emitted.
        val: Val,
    },
}

impl Inst {
    /// Call `f` with every register this instruction defines, in operand
    /// order.
    #[inline]
    pub fn for_each_def(&self, mut f: impl FnMut(VReg)) {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Lea { dst, .. }
            | Inst::Load { dst, .. } => f(*dst),
            Inst::Call { dst, .. } => dst.iter().copied().for_each(f),
            Inst::Custom { dsts, .. } => dsts.iter().copied().for_each(f),
            Inst::Store { .. } | Inst::Emit { .. } => {}
        }
    }

    /// Call `f` with every register this instruction reads, in operand
    /// order (a register read twice is visited twice).
    #[inline]
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        let mut val = |v: &Val| {
            if let Val::Reg(r) = v {
                f(*r);
            }
        };
        match self {
            Inst::Bin { a, b, .. } => {
                val(a);
                val(b);
            }
            Inst::Un { a, .. } => val(a),
            Inst::Select { c, a, b, .. } => {
                val(c);
                val(a);
                val(b);
            }
            Inst::Lea { addr, .. } | Inst::Load { addr, .. } => {
                if let AddrBase::Reg(r) = addr.base {
                    f(r);
                }
            }
            Inst::Store { val: v, addr } => {
                val(v);
                if let AddrBase::Reg(r) = addr.base {
                    f(r);
                }
            }
            Inst::Call { args, .. } | Inst::Custom { args, .. } => args.iter().for_each(val),
            Inst::Emit { val: v } => val(v),
        }
    }

    /// Rewrite every use of a register through `f`. Returns whether any
    /// operand changed.
    pub fn map_uses<F: FnMut(VReg) -> Val>(&mut self, mut f: F) -> bool {
        let map_val = |v: &mut Val, f: &mut F| match *v {
            Val::Reg(r) => {
                let new = f(r);
                let changed = new != *v;
                *v = new;
                changed
            }
            Val::Imm(_) => false,
        };
        // Address bases must stay registers; map only reg→reg, keep reg on imm.
        let map_addr = |a: &mut Addr, f: &mut F| match a.base {
            AddrBase::Reg(r) => match f(r) {
                Val::Reg(nr) => {
                    a.base = AddrBase::Reg(nr);
                    nr != r
                }
                Val::Imm(_) => false, // cannot fold an immediate base here
            },
            AddrBase::Global(_) | AddrBase::Local(_) => false,
        };
        // `|`, not `||`: every operand is visited, in operand order.
        match self {
            Inst::Bin { a, b, .. } => map_val(a, &mut f) | map_val(b, &mut f),
            Inst::Un { a, .. } => map_val(a, &mut f),
            Inst::Select { c, a, b, .. } => {
                map_val(c, &mut f) | map_val(a, &mut f) | map_val(b, &mut f)
            }
            Inst::Lea { addr, .. } | Inst::Load { addr, .. } => map_addr(addr, &mut f),
            Inst::Store { val, addr } => map_val(val, &mut f) | map_addr(addr, &mut f),
            Inst::Call { args, .. } | Inst::Custom { args, .. } => args
                .iter_mut()
                .fold(false, |changed, v| map_val(v, &mut f) | changed),
            Inst::Emit { val } => map_val(val, &mut f),
        }
    }

    /// Rewrite every defined register through `f`.
    pub fn map_defs<F: FnMut(VReg) -> VReg>(&mut self, mut f: F) {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Lea { dst, .. }
            | Inst::Load { dst, .. } => *dst = f(*dst),
            Inst::Call { dst, .. } => {
                if let Some(d) = dst {
                    *d = f(*d);
                }
            }
            Inst::Custom { dsts, .. } => dsts.iter_mut().for_each(|d| *d = f(*d)),
            Inst::Store { .. } | Inst::Emit { .. } => {}
        }
    }

    /// Whether the instruction is free of memory effects, I/O, calls and
    /// traps — safe to remove when dead and to execute speculatively.
    pub fn is_pure(&self) -> bool {
        match self {
            Inst::Bin { op, .. } => !matches!(op, Opcode::Div | Opcode::Rem),
            Inst::Un { .. } | Inst::Select { .. } | Inst::Lea { .. } => true,
            _ => false,
        }
    }

    /// Whether the instruction may be removed if its results are unused
    /// (pure, or a trap-free division is still not removable — division can
    /// trap, so it is kept).
    pub fn is_removable_if_dead(&self) -> bool {
        self.is_pure()
            || matches!(self, Inst::Load { .. }) // loads have no side effects
            || matches!(self, Inst::Bin { op: Opcode::Div | Opcode::Rem, b: Val::Imm(k), .. } if *k != 0)
    }

    /// Whether the instruction touches memory.
    pub fn is_memory(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Bin { op, dst, a, b } => write!(f, "{dst} = {op} {a}, {b}"),
            Inst::Un { op, dst, a } => write!(f, "{dst} = {op} {a}"),
            Inst::Select { dst, c, a, b } => write!(f, "{dst} = slct {c} ? {a} : {b}"),
            Inst::Lea { dst, addr } => write!(f, "{dst} = lea {addr}"),
            Inst::Load { dst, addr } => write!(f, "{dst} = ldw {addr}"),
            Inst::Store { val, addr } => write!(f, "stw {val}, {addr}"),
            Inst::Call { dst, func, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call f{}(", func.0)?;
                } else {
                    write!(f, "call f{}(", func.0)?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Custom { id, dsts, args } => {
                for (i, d) in dsts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, " = cust{id}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Emit { val } => write!(f, "emit {val}"),
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `c != 0`.
    Branch {
        /// Condition value.
        c: Val,
        /// Successor when `c != 0`.
        t: BlockId,
        /// Successor when `c == 0`.
        f: BlockId,
    },
    /// Function return.
    Ret(Option<Val>),
}

impl Terminator {
    /// Call `f` with each successor block, in branch order.
    #[inline]
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Terminator::Jump(b) => f(*b),
            Terminator::Branch { t, f: fb, .. } => {
                f(*t);
                f(*fb);
            }
            Terminator::Ret(_) => {}
        }
    }

    /// Call `f` with the register the terminator reads, if any.
    #[inline]
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            Terminator::Branch { c: Val::Reg(r), .. } | Terminator::Ret(Some(Val::Reg(r))) => f(*r),
            _ => {}
        }
    }

    /// Rewrite successor block ids through `f`.
    pub fn map_blocks<F: FnMut(BlockId) -> BlockId>(&mut self, mut f: F) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch { t, f: fb, .. } => {
                *t = f(*t);
                *fb = f(*fb);
            }
            Terminator::Ret(_) => {}
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Branch { c, t, f: fb } => write!(f, "br {c} ? {t} : {fb}"),
            Terminator::Ret(Some(v)) => write!(f, "ret {v}"),
            Terminator::Ret(None) => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs(i: &Inst) -> Vec<VReg> {
        let mut out = Vec::new();
        i.for_each_def(|d| out.push(d));
        out
    }

    fn uses(i: &Inst) -> Vec<VReg> {
        let mut out = Vec::new();
        i.for_each_use(|u| out.push(u));
        out
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin {
            op: Opcode::Add,
            dst: VReg(3),
            a: Val::Reg(VReg(1)),
            b: Val::Imm(4),
        };
        assert_eq!(defs(&i), vec![VReg(3)]);
        assert_eq!(uses(&i), vec![VReg(1)]);

        let s = Inst::Store {
            val: Val::Reg(VReg(2)),
            addr: Addr::reg(VReg(5)),
        };
        assert!(defs(&s).is_empty());
        assert_eq!(uses(&s), vec![VReg(2), VReg(5)]);

        let c = Inst::Custom {
            id: 0,
            dsts: vec![VReg(7), VReg(8)],
            args: vec![Val::Reg(VReg(1)), Val::Imm(2), Val::Reg(VReg(1))],
        };
        assert_eq!(defs(&c), vec![VReg(7), VReg(8)]);
        assert_eq!(uses(&c), vec![VReg(1), VReg(1)]);
    }

    #[test]
    fn purity_classification() {
        let add = Inst::Bin {
            op: Opcode::Add,
            dst: VReg(0),
            a: Val::Imm(1),
            b: Val::Imm(2),
        };
        assert!(add.is_pure());
        let div = Inst::Bin {
            op: Opcode::Div,
            dst: VReg(0),
            a: Val::Imm(1),
            b: Val::Reg(VReg(1)),
        };
        assert!(!div.is_pure());
        assert!(!div.is_removable_if_dead());
        let div_const = Inst::Bin {
            op: Opcode::Div,
            dst: VReg(0),
            a: Val::Imm(1),
            b: Val::Imm(2),
        };
        assert!(div_const.is_removable_if_dead());
        let load = Inst::Load {
            dst: VReg(0),
            addr: Addr::global(GlobalId(0)),
        };
        assert!(!load.is_pure());
        assert!(load.is_removable_if_dead());
    }

    #[test]
    fn alias_rules() {
        let g0 = Addr::global(GlobalId(0));
        let g1 = Addr::global(GlobalId(1));
        let g0_4 = Addr {
            base: AddrBase::Global(GlobalId(0)),
            off: 4,
        };
        let l0 = Addr::local(LocalSlot(0));
        let rr = Addr::reg(VReg(9));
        assert!(!g0.may_alias(&g1));
        assert!(!g0.may_alias(&g0_4));
        assert!(g0.may_alias(&g0));
        assert!(!g0.may_alias(&l0));
        assert!(rr.may_alias(&g0));
        assert!(
            rr.may_alias(&l0),
            "a computed base may point into a local array"
        );
        assert!(rr.may_alias(&rr));
    }

    #[test]
    fn map_uses_replaces_registers() {
        let mut i = Inst::Bin {
            op: Opcode::Add,
            dst: VReg(3),
            a: Val::Reg(VReg(1)),
            b: Val::Reg(VReg(2)),
        };
        let to_seven = |r| {
            if r == VReg(1) {
                Val::Imm(7)
            } else {
                Val::Reg(r)
            }
        };
        assert!(i.map_uses(to_seven));
        assert_eq!(uses(&i), vec![VReg(2)]);
        if let Inst::Bin { a, .. } = &i {
            assert_eq!(*a, Val::Imm(7));
        }
        assert!(!i.map_uses(to_seven), "nothing left to rewrite");

        // An address base cannot take an immediate: no change to report.
        let mut load = Inst::Load {
            dst: VReg(3),
            addr: Addr::reg(VReg(1)),
        };
        assert!(!load.map_uses(to_seven));
        assert!(load.map_uses(|_| Val::Reg(VReg(4))));
        assert_eq!(uses(&load), vec![VReg(4)]);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            c: Val::Reg(VReg(0)),
            t: BlockId(1),
            f: BlockId(2),
        };
        let mut succs = Vec::new();
        t.for_each_successor(|s| succs.push(s));
        assert_eq!(succs, vec![BlockId(1), BlockId(2)]);
        let mut used = Vec::new();
        t.for_each_use(|r| used.push(r));
        assert_eq!(used, vec![VReg(0)]);
        Terminator::Ret(None).for_each_successor(|s| panic!("ret has no successor {s}"));
    }

    #[test]
    fn display_forms() {
        let i = Inst::Load {
            dst: VReg(1),
            addr: Addr {
                base: AddrBase::Global(GlobalId(2)),
                off: 3,
            },
        };
        assert_eq!(i.to_string(), "v1 = ldw [g2+3]");
        let t = Terminator::Jump(BlockId(4));
        assert_eq!(t.to_string(), "jump bb4");
    }
}
