//! LIR — the backend's lowered representation.
//!
//! LIR is machine code with two liberties left: registers are still virtual
//! and frame offsets are still symbolic. Everything else — opcodes, the
//! calling convention, prologues and epilogues — is final. The scheduler,
//! cluster assigner and register allocator all work on LIR; emission then
//! binds the two remaining symbols.
//!
//! ## Calling convention (word-addressed stack, grows downward)
//!
//! * Caller stores outgoing argument *i* of an *n*-argument call at
//!   `SP - n + i`, then `AddSp(-n)`, `Call`, `AddSp(+n)`.
//! * Callee on entry: arguments at `SP + 0 .. SP + n`. Prologue allocates
//!   `frame` words (`AddSp(-frame)`), snapshots `vfp = SP`, saves `LR` to a
//!   frame slot if it makes calls, and loads parameters into virtual
//!   registers.
//! * Return value travels in the pinned physical register `c0.r1`
//!   ([`RETV`] at the LIR level).
//! * No registers are preserved across calls: every value live across a
//!   call is stack-homed by the register allocator.

use asip_ir::inst::{AddrBase, Inst, Terminator, VReg, Val};
use asip_ir::{Function, Module};
use asip_isa::{MachineDescription, Opcode};
use std::fmt;

/// Sentinel virtual register pinned to the physical return-value register
/// `c0.r1`.
pub const RETV: VReg = VReg(u32::MAX - 1);

/// A symbolic frame offset, resolved at emission once the spill count is
/// known. Frame layout (offsets from `vfp`, which equals the post-prologue
/// SP): `[locals][spills][lr?] | incoming args at frame_size + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef {
    /// Word `extra` of local array `slot`.
    Slot(u32, i32),
    /// Incoming argument `i` (at `frame_size + i`).
    Arg(u32),
    /// Outgoing argument `i` of an `n`-argument call (at `i - n`).
    Out(u32, u32),
    /// Spill slot `k` (after the locals).
    Spill(u32),
    /// The saved-LR slot.
    LrSlot,
    /// `-frame_size` (prologue SP adjustment).
    Grow,
    /// `+frame_size` (epilogue SP adjustment).
    Shrink,
}

/// A late-bound immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LImm {
    /// Known constant.
    Const(i32),
    /// Frame-relative, resolved at emission.
    Frame(FrameRef),
}

impl LImm {
    /// The constant value, if already known.
    pub fn as_const(self) -> Option<i32> {
        match self {
            LImm::Const(v) => Some(v),
            LImm::Frame(_) => None,
        }
    }
}

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LVal {
    /// Virtual register.
    Reg(VReg),
    /// Immediate.
    Imm(i32),
    /// Late-bound frame immediate (used by address arithmetic).
    Frame(FrameRef),
}

impl LVal {
    /// The register, if this is one.
    pub fn reg(self) -> Option<VReg> {
        match self {
            LVal::Reg(r) => Some(r),
            _ => None,
        }
    }
}

/// Branch/call target of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LTarget {
    /// No target.
    None,
    /// LIR block (branches).
    Block(u32),
    /// Function id (calls).
    Func(u32),
}

/// One LIR operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LOp {
    /// Machine opcode.
    pub opcode: Opcode,
    /// Destinations (virtual).
    pub dsts: Vec<VReg>,
    /// Sources.
    pub srcs: Vec<LVal>,
    /// Immediate field (memory offset / SP adjustment).
    pub imm: LImm,
    /// Branch or call target.
    pub target: LTarget,
    /// Whether this op is spill plumbing (reload/store inserted by the
    /// register allocator); such ops are serialized by the scheduler to
    /// bound simultaneous spill-temporary pressure.
    pub spill: bool,
}

impl LOp {
    /// Build a simple op.
    pub fn new(opcode: Opcode, dsts: Vec<VReg>, srcs: Vec<LVal>) -> LOp {
        LOp {
            opcode,
            dsts,
            srcs,
            imm: LImm::Const(0),
            target: LTarget::None,
            spill: false,
        }
    }

    /// Registers read.
    pub fn reads(&self) -> impl Iterator<Item = VReg> + '_ {
        self.srcs.iter().filter_map(|s| s.reg())
    }

    /// Whether this op is a scheduling "serial" op: it manipulates SP/LR or
    /// transfers control, and must keep its order w.r.t. all other serial
    /// ops.
    pub fn is_serial(&self) -> bool {
        matches!(
            self.opcode,
            Opcode::Call
                | Opcode::AddSp
                | Opcode::MovFromSp
                | Opcode::MovFromLr
                | Opcode::MovToLr
                | Opcode::Ret
                | Opcode::Halt
        )
    }

    /// Whether this is a branch (conditional or not), excluding `Ret`/`Halt`.
    pub fn is_branch(&self) -> bool {
        matches!(self.opcode, Opcode::Br | Opcode::BrT | Opcode::BrF)
    }

    /// Whether the op touches data memory.
    pub fn is_mem(&self) -> bool {
        matches!(self.opcode, Opcode::Ldw | Opcode::Stw)
    }

    /// Whether the op ends a block's execution unconditionally.
    pub fn is_block_end(&self) -> bool {
        matches!(self.opcode, Opcode::Br | Opcode::Ret | Opcode::Halt)
    }

    /// A key describing the memory location touched, for alias tests.
    /// `None` when the op is not a memory op.
    pub fn mem_key(&self, vfp: VReg) -> Option<MemKey> {
        if !self.is_mem() {
            return None;
        }
        let base = match self.opcode {
            Opcode::Ldw => self.srcs[0],
            Opcode::Stw => self.srcs[1],
            _ => unreachable!(),
        };
        Some(match (base, self.imm) {
            (LVal::Imm(b), LImm::Const(o)) => MemKey::Absolute(i64::from(b) + i64::from(o)),
            (LVal::Reg(r), LImm::Frame(fr)) if r == vfp => MemKey::Frame(fr),
            _ => MemKey::Unknown,
        })
    }
}

/// Alias-analysis key for a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKey {
    /// Known absolute word address (global data).
    Absolute(i64),
    /// Frame-relative slot of the current function.
    Frame(FrameRef),
    /// Anything.
    Unknown,
}

impl MemKey {
    /// Conservative may-alias between two accesses.
    pub fn may_alias(self, other: MemKey) -> bool {
        match (self, other) {
            (MemKey::Absolute(a), MemKey::Absolute(b)) => a == b,
            // Globals live at low addresses, frames at the top of memory.
            (MemKey::Absolute(_), MemKey::Frame(_)) | (MemKey::Frame(_), MemKey::Absolute(_)) => {
                false
            }
            (MemKey::Frame(a), MemKey::Frame(b)) => frame_may_alias(a, b),
            _ => true,
        }
    }
}

fn frame_may_alias(a: FrameRef, b: FrameRef) -> bool {
    use FrameRef::*;
    match (a, b) {
        (Slot(sa, oa), Slot(sb, ob)) => sa == sb && oa == ob,
        (Arg(i), Arg(j)) => i == j,
        (Spill(i), Spill(j)) => i == j,
        (LrSlot, LrSlot) => true,
        (Out(i, n), Out(j, m)) => n == m && i == j,
        // Distinct kinds occupy distinct frame regions — except Out slots,
        // which live *below* vfp and thus never collide with this frame's
        // slots, and Arg slots which live above.
        _ => false,
    }
}

impl fmt::Display for LOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        for d in &self.dsts {
            write!(f, " {d}")?;
        }
        for s in &self.srcs {
            match s {
                LVal::Reg(r) => write!(f, " {r}")?,
                LVal::Imm(v) => write!(f, " #{v}")?,
                LVal::Frame(fr) => write!(f, " fr{fr:?}")?,
            }
        }
        match self.imm {
            LImm::Const(0) => {}
            LImm::Const(v) => write!(f, " [{v}]")?,
            LImm::Frame(fr) => write!(f, " [{fr:?}]")?,
        }
        match self.target {
            LTarget::None => {}
            LTarget::Block(b) => write!(f, " ->L{b}")?,
            LTarget::Func(id) => write!(f, " ->f{id}")?,
        }
        Ok(())
    }
}

/// A LIR block: a linear op list whose last op is control; conditional
/// branches may appear mid-block after superblock formation (side exits).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LBlock {
    /// Operations in program order.
    pub ops: Vec<LOp>,
}

impl LBlock {
    /// Successor block ids referenced by branches in this block.
    pub fn successors(&self) -> impl Iterator<Item = u32> + '_ {
        self.ops.iter().filter_map(|op| match op.target {
            LTarget::Block(b) if op.is_branch() => Some(b),
            _ => None,
        })
    }
}

/// A LIR function.
#[derive(Debug, Clone, PartialEq)]
pub struct LFunc {
    /// Source name.
    pub name: String,
    /// Blocks; entry is block 0.
    pub blocks: Vec<LBlock>,
    /// One past the highest virtual register in use.
    pub num_vregs: u32,
    /// The frame-pointer snapshot register.
    pub vfp: VReg,
    /// Local array sizes in words (frame layout input).
    pub local_words: Vec<u32>,
    /// Number of spill slots allocated so far.
    pub spill_slots: u32,
    /// Whether the function contains calls (needs the LR slot).
    pub has_calls: bool,
    /// Number of incoming arguments.
    pub num_args: u32,
}

impl LFunc {
    /// Allocate a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let v = VReg(self.num_vregs);
        self.num_vregs += 1;
        v
    }

    /// Frame size in words (locals + spills + LR slot).
    pub fn frame_words(&self) -> u32 {
        let locals: u32 = self.local_words.iter().sum();
        locals + self.spill_slots + u32::from(self.has_calls)
    }

    /// Resolve a frame reference to a concrete word offset from `vfp`.
    pub fn resolve_frame(&self, fr: FrameRef) -> i32 {
        let locals: u32 = self.local_words.iter().sum();
        match fr {
            FrameRef::Slot(slot, extra) => {
                let base: u32 = self.local_words.iter().take(slot as usize).sum();
                base as i32 + extra
            }
            FrameRef::Spill(k) => (locals + k) as i32,
            FrameRef::LrSlot => (locals + self.spill_slots) as i32,
            FrameRef::Arg(i) => (self.frame_words() + i) as i32,
            FrameRef::Out(i, n) => i as i32 - n as i32,
            FrameRef::Grow => -(self.frame_words() as i32),
            FrameRef::Shrink => self.frame_words() as i32,
        }
    }
}

/// A LIR module plus the global data layout.
#[derive(Debug, Clone, PartialEq)]
pub struct LModule {
    /// Functions (ids match the IR module).
    pub funcs: Vec<LFunc>,
    /// Word address of each IR global.
    pub global_addr: Vec<u32>,
    /// Total words of global data.
    pub data_words: u32,
    /// Index of the entry function.
    pub entry: u32,
}

/// Errors during IR → LIR lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerToLirError {
    /// The module has no function with the requested entry name.
    NoEntry(String),
    /// Some function calls the entry function (its returns become `Halt`).
    CallsEntry {
        /// Name of the offending caller.
        caller: String,
    },
    /// The machine cannot execute an opcode the program needs (no slot
    /// hosts its unit kind).
    MissingUnit(String),
}

impl fmt::Display for LowerToLirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerToLirError::NoEntry(n) => write!(f, "no entry function {n:?}"),
            LowerToLirError::CallsEntry { caller } => {
                write!(
                    f,
                    "{caller} calls the entry function, which is not supported"
                )
            }
            LowerToLirError::MissingUnit(m) => write!(f, "machine lacks a unit: {m}"),
        }
    }
}

impl std::error::Error for LowerToLirError {}

/// Lower an IR module to LIR for the given machine.
///
/// # Errors
///
/// [`LowerToLirError`] when the entry is missing, recursion into the entry
/// exists, or the machine lacks a required functional unit.
pub fn lower_module(
    module: &Module,
    machine: &MachineDescription,
    entry: &str,
) -> Result<LModule, LowerToLirError> {
    let entry_id = module
        .func_id(entry)
        .ok_or_else(|| LowerToLirError::NoEntry(entry.to_string()))?;

    // Machine capability check: custom ops in the program require a custom
    // slot; everything else is guaranteed by MachineDescription::validate.
    let uses_custom = module
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.insts.iter())
        .any(|i| matches!(i, Inst::Custom { .. }));
    if uses_custom && !machine.has_fu(asip_isa::FuKind::Custom) {
        return Err(LowerToLirError::MissingUnit(
            "program uses custom ops but no slot hosts the custom unit".into(),
        ));
    }
    let uses_mul = module
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.insts.iter())
        .any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: Opcode::Mul | Opcode::MulH | Opcode::Div | Opcode::Rem,
                    ..
                }
            )
        });
    if uses_mul && !machine.has_fu(asip_isa::FuKind::Mul) {
        return Err(LowerToLirError::MissingUnit(
            "program multiplies/divides but no slot hosts the mul unit".into(),
        ));
    }

    // Global layout: sequential from address 0.
    let mut global_addr = Vec::with_capacity(module.globals.len());
    let mut addr = 0u32;
    for g in &module.globals {
        global_addr.push(addr);
        addr += g.words;
    }

    let mut funcs = Vec::with_capacity(module.funcs.len());
    for (fi, f) in module.funcs.iter().enumerate() {
        // Reject calls to the entry (its returns are rewritten to Halt).
        for b in &f.blocks {
            for i in &b.insts {
                if let Inst::Call { func, .. } = i {
                    if *func == entry_id {
                        return Err(LowerToLirError::CallsEntry {
                            caller: f.name.clone(),
                        });
                    }
                }
            }
        }
        funcs.push(lower_func(f, &global_addr, fi as u32 == entry_id.0));
    }

    Ok(LModule {
        funcs,
        global_addr,
        data_words: addr,
        entry: entry_id.0,
    })
}

fn lower_func(f: &Function, global_addr: &[u32], is_entry: bool) -> LFunc {
    let mut lf = LFunc {
        name: f.name.clone(),
        blocks: vec![LBlock::default(); f.blocks.len()],
        num_vregs: f.num_vregs,
        vfp: VReg(0), // fixed up below
        local_words: f.locals.iter().map(|l| l.words).collect(),
        spill_slots: 0,
        has_calls: f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. }))),
        num_args: f.num_params,
    };
    lf.vfp = lf.new_vreg();
    let vfp = lf.vfp;
    // One shared scratch register for LR restores in epilogues (each use is
    // a local def-use pair, so sharing is safe in the non-SSA LIR).
    let lr_tmp = if lf.has_calls && !is_entry {
        Some(lf.new_vreg())
    } else {
        None
    };

    // Lower each block body.
    for (bi, block) in f.iter_blocks() {
        let mut ops: Vec<LOp> = Vec::with_capacity(block.insts.len() + 2);
        for inst in &block.insts {
            lower_inst(inst, &mut ops, &mut lf, global_addr, vfp);
        }
        // Terminator.
        match &block.term {
            Terminator::Jump(b) => {
                let mut op = LOp::new(Opcode::Br, vec![], vec![]);
                op.target = LTarget::Block(b.0);
                ops.push(op);
            }
            Terminator::Branch { c, t, f: fl } => {
                let cv = lval(*c);
                let mut brt = LOp::new(Opcode::BrT, vec![], vec![cv]);
                brt.target = LTarget::Block(t.0);
                ops.push(brt);
                let mut br = LOp::new(Opcode::Br, vec![], vec![]);
                br.target = LTarget::Block(fl.0);
                ops.push(br);
            }
            Terminator::Ret(v) => {
                if let Some(v) = v {
                    ops.push(LOp::new(Opcode::Mov, vec![RETV], vec![lval(*v)]));
                }
                emit_epilogue(&mut ops, vfp, is_entry, lr_tmp);
            }
        }
        lf.blocks[bi.0 as usize].ops = ops;
    }

    // Prologue, prepended to the entry block.
    let mut pro: Vec<LOp> = Vec::new();
    {
        let mut grow = LOp::new(Opcode::AddSp, vec![], vec![]);
        grow.imm = LImm::Frame(FrameRef::Grow);
        pro.push(grow);
        pro.push(LOp::new(Opcode::MovFromSp, vec![vfp], vec![]));
        if lf.has_calls {
            let t = lf.new_vreg();
            pro.push(LOp::new(Opcode::MovFromLr, vec![t], vec![]));
            let mut st = LOp::new(Opcode::Stw, vec![], vec![LVal::Reg(t), LVal::Reg(vfp)]);
            st.imm = LImm::Frame(FrameRef::LrSlot);
            pro.push(st);
        }
        for i in 0..f.num_params {
            let mut ld = LOp::new(Opcode::Ldw, vec![VReg(i)], vec![LVal::Reg(vfp)]);
            ld.imm = LImm::Frame(FrameRef::Arg(i));
            pro.push(ld);
        }
    }
    let entry_ops = std::mem::take(&mut lf.blocks[0].ops);
    pro.extend(entry_ops);
    lf.blocks[0].ops = pro;
    lf
}

fn lval(v: Val) -> LVal {
    match v {
        Val::Reg(r) => LVal::Reg(r),
        Val::Imm(k) => LVal::Imm(k),
    }
}

fn emit_epilogue(ops: &mut Vec<LOp>, vfp: VReg, is_entry: bool, lr_tmp: Option<VReg>) {
    if is_entry {
        // The entry function ends the simulation; no need to restore state.
        ops.push(LOp::new(Opcode::Halt, vec![], vec![]));
        return;
    }
    if let Some(t) = lr_tmp {
        let mut ld = LOp::new(Opcode::Ldw, vec![t], vec![LVal::Reg(vfp)]);
        ld.imm = LImm::Frame(FrameRef::LrSlot);
        ops.push(ld);
        ops.push(LOp::new(Opcode::MovToLr, vec![], vec![LVal::Reg(t)]));
    }
    let mut shrink = LOp::new(Opcode::AddSp, vec![], vec![]);
    shrink.imm = LImm::Frame(FrameRef::Shrink);
    ops.push(shrink);
    ops.push(LOp::new(Opcode::Ret, vec![], vec![]));
}

fn lower_inst(inst: &Inst, ops: &mut Vec<LOp>, lf: &mut LFunc, global_addr: &[u32], vfp: VReg) {
    match inst {
        Inst::Bin { op, dst, a, b } => {
            ops.push(LOp::new(*op, vec![*dst], vec![lval(*a), lval(*b)]));
        }
        Inst::Un { op, dst, a } => {
            ops.push(LOp::new(*op, vec![*dst], vec![lval(*a)]));
        }
        Inst::Select { dst, c, a, b } => {
            ops.push(LOp::new(
                Opcode::Select,
                vec![*dst],
                vec![lval(*c), lval(*a), lval(*b)],
            ));
        }
        Inst::Lea { dst, addr } => match addr.base {
            AddrBase::Global(g) => {
                let abs = global_addr[g.0 as usize] as i32 + addr.off;
                ops.push(LOp::new(Opcode::Mov, vec![*dst], vec![LVal::Imm(abs)]));
            }
            AddrBase::Local(s) => {
                ops.push(LOp::new(
                    Opcode::Add,
                    vec![*dst],
                    vec![LVal::Reg(vfp), LVal::Frame(FrameRef::Slot(s.0, addr.off))],
                ));
            }
            AddrBase::Reg(r) => {
                ops.push(LOp::new(
                    Opcode::Add,
                    vec![*dst],
                    vec![LVal::Reg(r), LVal::Imm(addr.off)],
                ));
            }
        },
        Inst::Load { dst, addr } => {
            let mut op = match addr.base {
                AddrBase::Global(g) => {
                    let mut o = LOp::new(Opcode::Ldw, vec![*dst], vec![LVal::Imm(0)]);
                    o.imm = LImm::Const(global_addr[g.0 as usize] as i32 + addr.off);
                    o
                }
                AddrBase::Local(s) => {
                    let mut o = LOp::new(Opcode::Ldw, vec![*dst], vec![LVal::Reg(vfp)]);
                    o.imm = LImm::Frame(FrameRef::Slot(s.0, addr.off));
                    o
                }
                AddrBase::Reg(r) => {
                    let mut o = LOp::new(Opcode::Ldw, vec![*dst], vec![LVal::Reg(r)]);
                    o.imm = LImm::Const(addr.off);
                    o
                }
            };
            op.opcode = Opcode::Ldw;
            ops.push(op);
        }
        Inst::Store { val, addr } => {
            let v = lval(*val);
            let mut op = match addr.base {
                AddrBase::Global(g) => {
                    let mut o = LOp::new(Opcode::Stw, vec![], vec![v, LVal::Imm(0)]);
                    o.imm = LImm::Const(global_addr[g.0 as usize] as i32 + addr.off);
                    o
                }
                AddrBase::Local(s) => {
                    let mut o = LOp::new(Opcode::Stw, vec![], vec![v, LVal::Reg(vfp)]);
                    o.imm = LImm::Frame(FrameRef::Slot(s.0, addr.off));
                    o
                }
                AddrBase::Reg(r) => {
                    let mut o = LOp::new(Opcode::Stw, vec![], vec![v, LVal::Reg(r)]);
                    o.imm = LImm::Const(addr.off);
                    o
                }
            };
            op.opcode = Opcode::Stw;
            ops.push(op);
        }
        Inst::Call { dst, func, args } => {
            let n = args.len() as u32;
            for (i, a) in args.iter().enumerate() {
                let mut st = LOp::new(Opcode::Stw, vec![], vec![lval(*a), LVal::Reg(vfp)]);
                st.imm = LImm::Frame(FrameRef::Out(i as u32, n));
                ops.push(st);
            }
            if n > 0 {
                let mut push = LOp::new(Opcode::AddSp, vec![], vec![]);
                push.imm = LImm::Const(-(n as i32));
                ops.push(push);
            }
            let mut call = LOp::new(Opcode::Call, vec![], vec![]);
            call.target = LTarget::Func(func.0);
            ops.push(call);
            if n > 0 {
                let mut pop = LOp::new(Opcode::AddSp, vec![], vec![]);
                pop.imm = LImm::Const(n as i32);
                ops.push(pop);
            }
            // The callee may clobber every general register, including the
            // one holding the frame pointer; SP is restored by the callee's
            // epilogue, so the frame pointer is rematerialized from it.
            ops.push(LOp::new(Opcode::MovFromSp, vec![vfp], vec![]));
            if let Some(d) = dst {
                ops.push(LOp::new(Opcode::Mov, vec![*d], vec![LVal::Reg(RETV)]));
            }
        }
        Inst::Custom { id, dsts, args } => {
            ops.push(LOp::new(
                Opcode::Custom(*id),
                dsts.clone(),
                args.iter().map(|a| lval(*a)).collect(),
            ));
        }
        Inst::Emit { val } => {
            ops.push(LOp::new(Opcode::Emit, vec![], vec![lval(*val)]));
        }
    }
    let _ = lf;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_key_alias_rules() {
        assert!(!MemKey::Absolute(4).may_alias(MemKey::Absolute(8)));
        assert!(MemKey::Absolute(4).may_alias(MemKey::Absolute(4)));
        assert!(!MemKey::Absolute(4).may_alias(MemKey::Frame(FrameRef::Spill(0))));
        assert!(!MemKey::Frame(FrameRef::Slot(0, 1)).may_alias(MemKey::Frame(FrameRef::Slot(0, 2))));
        assert!(MemKey::Frame(FrameRef::Slot(0, 1)).may_alias(MemKey::Frame(FrameRef::Slot(0, 1))));
        assert!(MemKey::Unknown.may_alias(MemKey::Absolute(4)));
    }

    #[test]
    fn frame_resolution_layout() {
        let lf = LFunc {
            name: "t".into(),
            blocks: vec![],
            num_vregs: 0,
            vfp: VReg(0),
            local_words: vec![4, 2],
            spill_slots: 3,
            has_calls: true,
            num_args: 2,
        };
        // frame = 4 + 2 + 3 + 1 = 10
        assert_eq!(lf.frame_words(), 10);
        assert_eq!(lf.resolve_frame(FrameRef::Slot(0, 0)), 0);
        assert_eq!(lf.resolve_frame(FrameRef::Slot(1, 1)), 5);
        assert_eq!(lf.resolve_frame(FrameRef::Spill(0)), 6);
        assert_eq!(lf.resolve_frame(FrameRef::LrSlot), 9);
        assert_eq!(lf.resolve_frame(FrameRef::Arg(0)), 10);
        assert_eq!(lf.resolve_frame(FrameRef::Arg(1)), 11);
        assert_eq!(lf.resolve_frame(FrameRef::Out(0, 2)), -2);
        assert_eq!(lf.resolve_frame(FrameRef::Out(1, 2)), -1);
        assert_eq!(lf.resolve_frame(FrameRef::Grow), -10);
        assert_eq!(lf.resolve_frame(FrameRef::Shrink), 10);
    }

    #[test]
    fn lower_simple_module() {
        let m = asip_tinyc::compile("void main() { emit(1 + 2); }").unwrap();
        let lm = lower_module(&m, &MachineDescription::ember1(), "main").unwrap();
        assert_eq!(lm.funcs.len(), 1);
        let f = &lm.funcs[0];
        // Prologue: AddSp, MovFromSp; body: add/mov + emit; epilogue: Halt.
        let ops = &f.blocks[0].ops;
        assert_eq!(ops[0].opcode, Opcode::AddSp);
        assert_eq!(ops[1].opcode, Opcode::MovFromSp);
        assert!(ops.iter().any(|o| o.opcode == Opcode::Emit));
        assert_eq!(ops.last().unwrap().opcode, Opcode::Halt);
    }

    #[test]
    fn entry_cannot_be_called() {
        let m = asip_tinyc::compile("void main() { helper(); } void helper() { main(); }");
        // TinyC allows this; the backend must reject it.
        let m = m.unwrap();
        let e = lower_module(&m, &MachineDescription::ember1(), "main").unwrap_err();
        assert!(matches!(e, LowerToLirError::CallsEntry { .. }));
    }

    #[test]
    fn globals_get_sequential_addresses() {
        let m =
            asip_tinyc::compile("int a[10]; int b; int c[5]; void main() { emit(b); }").unwrap();
        let lm = lower_module(&m, &MachineDescription::ember1(), "main").unwrap();
        assert_eq!(lm.global_addr, vec![0, 10, 11]);
        assert_eq!(lm.data_words, 16);
    }

    #[test]
    fn missing_entry_reported() {
        let m = asip_tinyc::compile("void not_main() { }").unwrap();
        let e = lower_module(&m, &MachineDescription::ember1(), "main").unwrap_err();
        assert!(matches!(e, LowerToLirError::NoEntry(_)));
    }
}
