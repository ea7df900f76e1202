//! The decoded tables: a program + machine description compiled **once**
//! into a dense, flat representation that the block engines
//! ([`crate::block`]) translate into superops and run their per-pc slow
//! path over, with no per-cycle table lookups.
//!
//! The interpretive loops of [`crate::reference`] re-resolve operands,
//! re-look-up latencies in the [`MachineDescription`] tables and recompute
//! bundle byte layout on every fetch. Decoding hoists all of that out of
//! the measurement loop:
//!
//! * **Operands** are resolved to flat register-file indices
//!   (`cluster * regs_per_cluster + index`; index 0 is the hardwired zero
//!   register) or inline immediates — no `Operand` matching per read.
//! * **Latencies, activity classes and custom-op areas** are baked from the
//!   machine tables into each decoded operation at decode time.
//! * **Branch targets and function entries** are resolved to bundle (or
//!   instruction) indices, so `Call` never chases the function directory.
//! * **Fetch geometry** — encoded byte size and the I-cache line span of
//!   every pc — is a flat per-pc table, so the I-cache is probed with
//!   [`crate::ICache::access_lines`] on precomputed line numbers.
//! * The scalar **dual-issue pairing rule** is precomputed per adjacent
//!   instruction pair (see `scalar::DecodedScalar`).

pub(crate) mod scalar;
pub(crate) mod vliw;

pub(crate) use scalar::DecodedScalar;
pub(crate) use vliw::DecodedVliw;

use asip_isa::image::Image;
use asip_isa::{CustomOpDef, LatClass, MachineDescription, MachineOp, Opcode, Operand, Reg};

/// Sentinel LR value meaning "return ends the program".
pub(crate) const LR_HALT: u32 = u32::MAX;

/// A pre-resolved source operand: a flat register-file index or an inline
/// immediate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// Read the flat register `.0` (index 0 is the hardwired zero).
    Reg(u32),
    /// A literal value.
    Imm(i32),
}

/// One machine operation with everything the cycle loop needs pre-baked.
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    /// What to execute.
    pub kind: ExecKind,
    /// Result latency in cycles (for the scalar engine this already
    /// includes the no-forwarding register-file penalty).
    pub lat: u64,
}

/// The pre-decoded form of every executable operation shape.
#[derive(Debug, Clone)]
pub(crate) enum ExecKind {
    /// Two-operand arithmetic evaluated through [`Opcode::eval2`].
    Bin {
        op: Opcode,
        dst: u32,
        a: Src,
        b: Src,
    },
    /// One-operand arithmetic evaluated through [`Opcode::eval1`].
    Un { op: Opcode, dst: u32, a: Src },
    /// `dst = mem[base + off]`.
    Ldw { dst: u32, base: Src, off: i64 },
    /// `mem[base + off] = val`.
    Stw { val: Src, base: Src, off: i64 },
    /// Unconditional branch to a resolved bundle/instruction index.
    Br { target: u32 },
    /// Branch when the condition is nonzero.
    BrT { cond: Src, target: u32 },
    /// Branch when the condition is zero.
    BrF { cond: Src, target: u32 },
    /// Call: `LR <- pc + 1`, jump to the callee's resolved entry index.
    Call { entry: u32 },
    /// Return through LR.
    Ret,
    /// Stop the machine.
    Halt,
    /// Append a value to the output stream.
    Emit { src: Src },
    /// `SP += imm`.
    AddSp { imm: i64 },
    /// `dst = SP`.
    MovFromSp { dst: u32 },
    /// `dst = LR`.
    MovFromLr { dst: u32 },
    /// `LR = src`.
    MovToLr { src: Src },
    /// Register/immediate move (`Mov` and `CopyX`).
    Mov { dst: u32, src: Src },
    /// `dst = if c != 0 { a } else { b }`.
    Select { dst: u32, c: Src, a: Src, b: Src },
    /// Application-specific operation: operand/destination ranges index the
    /// decoded program's shared pools (the energy-model area weight is
    /// pre-aggregated into the op's [`ActivityDelta`]).
    Custom {
        id: u16,
        srcs: (u32, u32),
        dsts: (u32, u32),
    },
    /// Empty slot.
    Nop,
}

/// Per-pc fetch geometry: encoded bytes plus the I-cache line span
/// `[first_line, last_line]` (zeros when the machine models no I-cache).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FetchInfo {
    pub bytes: u32,
    pub first_line: u64,
    pub last_line: u64,
}

impl FetchInfo {
    /// Geometry for an access of `bytes` at `addr` under `line_bytes`-byte
    /// cache lines (mirrors [`crate::ICache::access`]'s span arithmetic).
    pub(crate) fn new(addr: u32, bytes: u32, line_bytes: Option<u32>) -> FetchInfo {
        let (first_line, last_line) = match line_bytes {
            Some(line) => {
                let line = u64::from(line);
                let first = u64::from(addr) / line;
                let last = (u64::from(addr) + u64::from(bytes.max(1)) - 1) / line;
                (first, last)
            }
            None => (0, 0),
        };
        FetchInfo {
            bytes,
            first_line,
            last_line,
        }
    }
}

/// Operand/destination pools shared by all decoded custom operations (kept
/// out of [`ExecKind`] so the enum stays `Copy`-sized and cache-friendly).
#[derive(Debug, Default)]
pub(crate) struct CustomPools {
    pub srcs: Vec<Src>,
    pub dsts: Vec<u32>,
}

/// A fresh data-memory image: zeroed to `dmem_words`, with `globals`'
/// initializers applied — the one definition shared by the block engines
/// and the reference loops, so the image semantics can never drift
/// between the differential pair. Zero words cost nothing until a run
/// touches their page (see [`Image`]).
pub(crate) fn initial_memory(dmem_words: u32, globals: &[asip_isa::GlobalSym]) -> Image {
    let mut memory = Image::zeroed(dmem_words as usize);
    for g in globals {
        for (i, &v) in g.init.iter().enumerate() {
            let a = g.addr as usize + i;
            if a < memory.len() {
                memory[a] = v;
            }
        }
    }
    memory
}

/// The static-data region of a finished run's image: its first
/// `data_words` words, where every global lives — what
/// [`crate::SimResult::memory`] holds. The stack above is per-run scratch.
pub(crate) fn static_data(memory: &[i32], data_words: u32) -> Vec<i32> {
    memory[..memory.len().min(data_words as usize)].to_vec()
}

/// Write named workload inputs into a memory image through the program's
/// global symbols, truncating to each global's extent and ignoring unknown
/// names — the same rules [`crate::reference`] applies, shared so the
/// engines can never drift on input handling.
pub(crate) fn write_inputs(
    memory: &mut [i32],
    globals: &[asip_isa::GlobalSym],
    inputs: &[(String, Vec<i32>)],
) {
    for (name, data) in inputs {
        if let Some(g) = globals.iter().find(|g| &g.name == name) {
            for (i, &v) in data.iter().take(g.words as usize).enumerate() {
                memory[g.addr as usize + i] = v;
            }
        }
    }
}

/// First-touch entry admission, shared by the block engines' superop
/// guards and the superblock trace guards: an in-flight write to register
/// `r` landing at or before `base + touch[r]` — the entry cycle plus the
/// consumer's first-touch issue offset for `r` — provably cannot change
/// the consumer's statically-replayed timing, so the fast path stays
/// valid. `touch` holds `u64::MAX` for registers the consumer never
/// observes (the saturating add can then never be exceeded).
#[inline]
pub(crate) fn admit_ok(carried: &[u32], ready: &[u64], touch: &[u64], base: u64) -> bool {
    carried
        .iter()
        .all(|&r| ready[r as usize] <= base.saturating_add(touch[r as usize]))
}

/// Flatten a register name against `regs_per_cluster`. Index 0 is the
/// hardwired zero register in every engine.
#[inline]
pub(crate) fn flat_reg(r: Reg, regs_per: u32) -> u32 {
    u32::from(r.cluster) * regs_per + u32::from(r.index)
}

fn flat_src(o: &Operand, regs_per: u32) -> Src {
    match o {
        Operand::Reg(r) => Src::Reg(flat_reg(*r, regs_per)),
        Operand::Imm(v) => Src::Imm(*v),
    }
}

/// Decode one machine operation against the machine tables. `fn_entry`
/// resolves a function id to its entry index in the target container;
/// `lat_extra` is added to the machine latency (the scalar engine passes
/// its no-forwarding penalty, the VLIW engine 0).
pub(crate) fn decode_op(
    op: &MachineOp,
    m: &MachineDescription,
    fn_entry: &[u32],
    regs_per: u32,
    lat_extra: u64,
    pools: &mut CustomPools,
) -> DecodedOp {
    let lat = u64::from(m.latency(op.opcode)) + lat_extra;
    let dst0 = || flat_reg(op.dsts[0], regs_per);
    let src = |i: usize| flat_src(&op.srcs[i], regs_per);
    let kind = match op.opcode {
        Opcode::Ldw => ExecKind::Ldw {
            dst: dst0(),
            base: src(0),
            off: i64::from(op.imm),
        },
        Opcode::Stw => ExecKind::Stw {
            val: src(0),
            base: src(1),
            off: i64::from(op.imm),
        },
        Opcode::Br => ExecKind::Br { target: op.target },
        Opcode::BrT => ExecKind::BrT {
            cond: src(0),
            target: op.target,
        },
        Opcode::BrF => ExecKind::BrF {
            cond: src(0),
            target: op.target,
        },
        Opcode::Call => ExecKind::Call {
            entry: fn_entry[op.target as usize],
        },
        Opcode::Ret => ExecKind::Ret,
        Opcode::Halt => ExecKind::Halt,
        Opcode::Emit => ExecKind::Emit { src: src(0) },
        Opcode::AddSp => ExecKind::AddSp {
            imm: i64::from(op.imm),
        },
        Opcode::MovFromSp => ExecKind::MovFromSp { dst: dst0() },
        Opcode::MovFromLr => ExecKind::MovFromLr { dst: dst0() },
        Opcode::MovToLr => ExecKind::MovToLr { src: src(0) },
        Opcode::CopyX | Opcode::Mov => ExecKind::Mov {
            dst: dst0(),
            src: src(0),
        },
        Opcode::Select => ExecKind::Select {
            dst: dst0(),
            c: src(0),
            a: src(1),
            b: src(2),
        },
        Opcode::Custom(k) => {
            let s0 = pools.srcs.len() as u32;
            pools
                .srcs
                .extend(op.srcs.iter().map(|s| flat_src(s, regs_per)));
            let d0 = pools.dsts.len() as u32;
            pools
                .dsts
                .extend(op.dsts.iter().map(|&d| flat_reg(d, regs_per)));
            ExecKind::Custom {
                id: k,
                srcs: (s0, pools.srcs.len() as u32),
                dsts: (d0, pools.dsts.len() as u32),
            }
        }
        Opcode::Nop => ExecKind::Nop,
        Opcode::Abs | Opcode::Sxtb | Opcode::Sxth => ExecKind::Un {
            op: op.opcode,
            dst: dst0(),
            a: src(0),
        },
        _ => ExecKind::Bin {
            op: op.opcode,
            dst: dst0(),
            a: src(0),
            b: src(1),
        },
    };
    DecodedOp { kind, lat }
}

/// Dynamic activity deltas one bundle (or instruction) contributes per
/// execution, pre-aggregated at decode time from the ops' latency classes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActivityDelta {
    pub alu: u64,
    pub mul: u64,
    pub div: u64,
    pub mem: u64,
    pub branch: u64,
    pub copy: u64,
    pub custom: u64,
    pub custom_area: u64,
    pub ops: u64,
}

impl ActivityDelta {
    /// Fold one operation into the delta.
    pub(crate) fn add_op(&mut self, op: &MachineOp, custom_ops: &[CustomOpDef]) {
        match op.opcode.lat_class() {
            LatClass::Alu => self.alu += 1,
            LatClass::Mul => self.mul += 1,
            LatClass::Div => self.div += 1,
            LatClass::Mem => self.mem += 1,
            LatClass::Branch => self.branch += 1,
            LatClass::Copy => self.copy += 1,
            LatClass::Custom => self.custom += 1,
        }
        if let Opcode::Custom(k) = op.opcode {
            if let Some(def) = custom_ops.get(k as usize) {
                self.custom_area += def.area.round() as u64;
            }
        }
        self.ops += 1;
    }

    /// Fold another delta into this one (the block translator aggregates
    /// a whole basic block's bundles into one superop-level delta).
    pub(crate) fn merge(&mut self, other: &ActivityDelta) {
        self.alu += other.alu;
        self.mul += other.mul;
        self.div += other.div;
        self.mem += other.mem;
        self.branch += other.branch;
        self.copy += other.copy;
        self.custom += other.custom;
        self.custom_area += other.custom_area;
        self.ops += other.ops;
    }

    /// Apply the delta to the running activity counters.
    #[inline]
    pub(crate) fn apply(&self, act: &mut asip_isa::ActivityCounts) {
        act.alu_ops += self.alu;
        act.mul_ops += self.mul;
        act.div_ops += self.div;
        act.mem_ops += self.mem;
        act.branch_ops += self.branch;
        act.copy_ops += self.copy;
        act.custom_ops += self.custom;
        act.custom_area_executed += self.custom_area;
    }
}
