//! The decoded tables: a program + machine description compiled **once**
//! into a dense, flat representation that the block engine
//! ([`crate::block`]) translates into superops and runs its per-pc slow
//! path over, with no per-cycle table lookups — plus the issue-model
//! interface through which the one engine serves both target kinds.
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
//! * **Same-pc ordering.** A VLIW bundle reads every register before any
//!   of its writes land and applies its stores at its end; decoding marks
//!   the few bundles where op order could observe the difference, so
//!   every other pc writes straight through.
//!
//! A pc is a VLIW bundle or a scalar instruction; everything above is
//! shared. What differs between the two pipelines is the [`IssueModel`],
//! implemented in `vliw` and `scalar` by the program types themselves —
//! the issue model follows the program a simulator is built for.

mod scalar;
mod vliw;

use crate::run::{SimError, SimOptions, SimResult};
use asip_isa::image::Image;
use asip_isa::{
    CustomOpDef, FuncSym, GlobalSym, LatClass, MachineDescription, MachineOp, Opcode, Operand, Reg,
};
use std::fmt;

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
/// A pc's ops are consecutive in the decoded op pool, so the executor can
/// run a whole block's ops as one slice.
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    /// What to execute.
    pub kind: ExecKind,
    /// Result latency in cycles (for a scalar pipeline this already
    /// includes the no-forwarding register-file penalty).
    pub lat: u32,
    /// The op's register, SP or LR result, or its store, waits for the
    /// end of its pc: a VLIW bundle where a later op reads what an earlier
    /// op writes, or a load follows a store, keeps read-before-write this
    /// way.
    pub defer: bool,
    /// The last op of a pc with deferred results, which it applies.
    pub flush: bool,
}

/// Deferred-write index of the stack pointer (beside the flat registers).
pub(crate) const SP: u32 = u32::MAX;
/// Deferred-write index of the link register.
pub(crate) const LR: u32 = u32::MAX - 1;

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
    /// Call: `LR <- ret` (the pc after the call's), jump to the callee's
    /// resolved entry index.
    Call { entry: u32, ret: u32 },
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
/// initializers applied — the one definition shared by the block engine
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
/// block engine and the oracle can never drift on input handling.
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

/// Lower one machine operation to its decoded form against the machine
/// tables. `fn_entry` resolves a function id to its entry index in the
/// target container; `lat_extra` is added to the machine latency (the
/// scalar engine passes its no-forwarding penalty, the VLIW engine 0).
pub(crate) fn lower_op(
    op: &MachineOp,
    m: &MachineDescription,
    fn_entry: &[u32],
    regs_per: u32,
    lat_extra: u32,
    pools: &mut CustomPools,
) -> DecodedOp {
    let lat = m.latency(op.opcode) + lat_extra;
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
            ret: 0,
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
    DecodedOp {
        kind,
        lat,
        defer: false,
        flush: false,
    }
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

/// One decoded pc — a VLIW bundle or a scalar instruction: its op and
/// interlock ranges into the flat pools (every pc has at least one op),
/// its statistics delta and fetch geometry, and the scalar issue flags.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PcMeta {
    pub(crate) ops: (u32, u32),
    pub(crate) interlock: (u32, u32),
    pub(crate) act: ActivityDelta,
    pub(crate) fetch: FetchInfo,
    /// Scalar: the instruction can dual-issue with its predecessor under
    /// the slot table (false for instruction 0).
    pub(crate) pair_with_prev: bool,
    /// Scalar: a control op, which seals its issue group.
    pub(crate) seals: bool,
}

/// The directories every program kind carries, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Directory<'a> {
    pub(crate) functions: &'a [FuncSym],
    pub(crate) globals: &'a [GlobalSym],
    pub(crate) custom_ops: &'a [CustomOpDef],
    pub(crate) entry_func: u32,
    pub(crate) data_words: u32,
}

/// A program compiled once against a [`MachineDescription`] into the
/// dense form the block engine executes: per-pc metadata over flat op,
/// interlock and custom-operand pools. Owns clones of everything it reads
/// of the machine and program, so a decoding can outlive its inputs.
#[derive(Debug)]
pub struct Decoded {
    pub(crate) machine: MachineDescription,
    pub(crate) globals: Vec<GlobalSym>,
    pub(crate) custom_ops: Vec<CustomOpDef>,
    pub(crate) data_words: u32,
    /// Every function's entry pc.
    pub(crate) entries: Vec<u32>,
    pub(crate) entry_pc: u32,
    pub(crate) num_args: u32,
    pub(crate) pcs: Vec<PcMeta>,
    pub(crate) ops: Vec<DecodedOp>,
    /// Flat registers each pc reads or writes (its interlock set; the
    /// hardwired zero register is left out).
    pub(crate) interlock: Vec<u32>,
    pub(crate) pools: CustomPools,
    pub(crate) nregs: usize,
    /// Issue slots per cycle.
    pub(crate) width: u64,
    pub(crate) branch_penalty: u64,
}

impl Decoded {
    /// Empty tables for `dir`'s program on `machine`, with `nregs` flat
    /// registers and `width` issue slots; the issue model's decoder then
    /// [`push`](Decoded::push)es every pc in order. The pc and op tables
    /// are sized once for `pcs` pcs holding `ops` decoded ops in all (an
    /// empty bundle counts one): grown by doubling instead, a large
    /// program's per-pc table is copied at every regrowth and can end up
    /// twice its length.
    pub(crate) fn new(
        machine: &MachineDescription,
        dir: Directory<'_>,
        nregs: usize,
        width: usize,
        (pcs, ops): (usize, usize),
    ) -> Self {
        let entry = &dir.functions[dir.entry_func as usize];
        Decoded {
            machine: machine.clone(),
            globals: dir.globals.to_vec(),
            custom_ops: dir.custom_ops.to_vec(),
            data_words: dir.data_words,
            entries: dir.functions.iter().map(|f| f.entry).collect(),
            entry_pc: entry.entry,
            num_args: entry.num_args,
            pcs: Vec::with_capacity(pcs),
            ops: Vec::with_capacity(ops),
            interlock: Vec::new(),
            pools: CustomPools::default(),
            nregs,
            width: width as u64,
            branch_penalty: u64::from(machine.branch_penalty),
        }
    }

    /// Decode the next pc from its machine ops, fetched as `bytes` bytes at
    /// `addr`, with `lat_extra` added to every result latency.
    pub(crate) fn push<'a>(
        &mut self,
        ops: impl IntoIterator<Item = &'a MachineOp>,
        addr: u32,
        bytes: u32,
        lat_extra: u32,
    ) -> &mut PcMeta {
        let regs_per = u32::from(self.machine.regs_per_cluster);
        let (o0, i0) = (self.ops.len(), self.interlock.len() as u32);
        let mut act = ActivityDelta::default();
        for op in ops {
            act.add_op(op, &self.custom_ops);
            for r in op.reads().chain(op.dsts.iter().copied()) {
                let r = flat_reg(r, regs_per);
                if r != 0 {
                    self.interlock.push(r);
                }
            }
            let op = lower_op(
                op,
                &self.machine,
                &self.entries,
                regs_per,
                lat_extra,
                &mut self.pools,
            );
            self.ops.push(op);
        }
        if self.ops.len() == o0 {
            // An empty bundle still occupies its pc in the op stream.
            self.ops.push(DecodedOp {
                kind: ExecKind::Nop,
                lat: 0,
                defer: false,
                flush: false,
            });
        }
        // Defer only where op order is observable: a register, SP or LR an
        // earlier op of the pc writes is read by a later one, or a load
        // follows a store. Everything else writes straight through.
        let (mut written, mut stored) = (Vec::new(), false);
        let (mut defer_writes, mut defer_stores) = (false, false);
        let pc = self.pcs.len() as u32;
        for op in &mut self.ops[o0..] {
            let (link_read, link_write) = match op.kind {
                ExecKind::AddSp { .. } => (Some(SP), Some(SP)),
                ExecKind::MovFromSp { .. } => (Some(SP), None),
                ExecKind::MovFromLr { .. } | ExecKind::Ret => (Some(LR), None),
                ExecKind::MovToLr { .. } => (None, Some(LR)),
                ExecKind::Call { ref mut ret, .. } => {
                    *ret = pc + 1;
                    (None, Some(LR))
                }
                _ => (None, None),
            };
            for_each_read(op, &self.pools, &mut |r| {
                defer_writes |= written.contains(&r)
            });
            defer_writes |= link_read.is_some_and(|r| written.contains(&r));
            for_each_write(op, &self.pools, &mut |w| written.push(w));
            written.extend(link_write);
            defer_stores |= stored && matches!(op.kind, ExecKind::Ldw { .. });
            stored |= matches!(op.kind, ExecKind::Stw { .. });
        }
        for op in &mut self.ops[o0..] {
            op.defer = if matches!(op.kind, ExecKind::Stw { .. }) {
                defer_stores
            } else {
                defer_writes
            };
        }
        self.ops.last_mut().expect("at least one op").flush = defer_writes || defer_stores;
        let line_bytes = self.machine.icache.map(|c| c.line_bytes);
        self.pcs.push(PcMeta {
            ops: (o0 as u32, self.ops.len() as u32),
            interlock: (i0, self.interlock.len() as u32),
            act,
            fetch: FetchInfo::new(addr, bytes, line_bytes),
            pair_with_prev: false,
            seals: false,
        });
        self.pcs.last_mut().expect("just pushed")
    }

    /// The decoded ops of `pc`.
    #[inline(always)]
    pub(crate) fn ops_of(&self, pc: u32) -> &[DecodedOp] {
        let (lo, hi) = self.pcs[pc as usize].ops;
        &self.ops[lo as usize..hi as usize]
    }

    /// The pc whose ops include the decoded op at `index`.
    pub(crate) fn pc_of(&self, index: usize) -> u32 {
        self.pcs.partition_point(|m| m.ops.1 as usize <= index) as u32
    }

    /// The interlock set of `pc`.
    #[inline(always)]
    pub(crate) fn interlock_of(&self, pc: u32) -> &[u32] {
        let (lo, hi) = self.pcs[pc as usize].interlock;
        &self.interlock[lo as usize..hi as usize]
    }
}

/// Visit one decoded op's register *reads* (flat indices), including the
/// shared custom-op source pool.
pub(crate) fn for_each_read(op: &DecodedOp, pools: &CustomPools, f: &mut impl FnMut(u32)) {
    let mut src = |s: &Src| {
        if let Src::Reg(r) = *s {
            f(r);
        }
    };
    match &op.kind {
        ExecKind::Bin { a, b, .. } => {
            src(a);
            src(b);
        }
        ExecKind::Un { a, .. } => src(a),
        ExecKind::Ldw { base, .. } => src(base),
        ExecKind::Stw { val, base, .. } => {
            src(val);
            src(base);
        }
        ExecKind::BrT { cond, .. } | ExecKind::BrF { cond, .. } => src(cond),
        ExecKind::Emit { src: s } | ExecKind::MovToLr { src: s } | ExecKind::Mov { src: s, .. } => {
            src(s);
        }
        ExecKind::Select { c, a, b, .. } => {
            src(c);
            src(a);
            src(b);
        }
        ExecKind::Custom { srcs, .. } => {
            for s in &pools.srcs[srcs.0 as usize..srcs.1 as usize] {
                src(s);
            }
        }
        ExecKind::Br { .. }
        | ExecKind::Call { .. }
        | ExecKind::Ret
        | ExecKind::Halt
        | ExecKind::AddSp { .. }
        | ExecKind::MovFromSp { .. }
        | ExecKind::MovFromLr { .. }
        | ExecKind::Nop => {}
    }
}

/// Visit one decoded op's register *writes* (flat indices), including the
/// shared custom-op destination pool; the hardwired zero register is left
/// out.
pub(crate) fn for_each_write(op: &DecodedOp, pools: &CustomPools, f: &mut impl FnMut(u32)) {
    let mut dst = |d: u32| {
        if d != 0 {
            f(d);
        }
    };
    match &op.kind {
        ExecKind::Bin { dst: d, .. }
        | ExecKind::Un { dst: d, .. }
        | ExecKind::Ldw { dst: d, .. }
        | ExecKind::MovFromSp { dst: d }
        | ExecKind::MovFromLr { dst: d }
        | ExecKind::Mov { dst: d, .. }
        | ExecKind::Select { dst: d, .. } => dst(*d),
        ExecKind::Custom { dsts, .. } => {
            for &d in &pools.dsts[dsts.0 as usize..dsts.1 as usize] {
                dst(d);
            }
        }
        ExecKind::Stw { .. }
        | ExecKind::Br { .. }
        | ExecKind::BrT { .. }
        | ExecKind::BrF { .. }
        | ExecKind::Call { .. }
        | ExecKind::Ret
        | ExecKind::Halt
        | ExecKind::Emit { .. }
        | ExecKind::AddSp { .. }
        | ExecKind::MovToLr { .. }
        | ExecKind::Nop => {}
    }
}

/// Issue timing, shared by the block engine's static replay (cycles as
/// offsets from a chain's entry) and its slow path (absolute cycles): the
/// current issue cycle, the stall and group tallies, and the issue
/// model's group state. An [`IssueModel`] advances it one pc at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Issue<G> {
    /// Cycle of the current issue point.
    pub(crate) cycle: u64,
    /// Interlock stall cycles so far.
    pub(crate) stalls: u64,
    /// Issue groups opened so far (one per bundle on a VLIW).
    pub(crate) groups: u64,
    pub(crate) group: G,
}

impl<G> Issue<G> {
    /// Stall to the latest in-flight ready time on `ready` over `regs`,
    /// counting the stall; true when there was one.
    #[inline(always)]
    pub(crate) fn interlock(&mut self, ready: &[u64], regs: &[u32]) -> bool {
        let at = regs
            .iter()
            .fold(self.cycle, |t, &r| t.max(ready[r as usize]));
        self.stalls += at - self.cycle;
        let stalled = at > self.cycle;
        self.cycle = at;
        stalled
    }
}

/// How one target kind issues its program: everything the block engine
/// ([`crate::block`]) does differently for a VLIW and a scalar pipeline.
/// Implemented by [`asip_isa::VliwProgram`] (bundles under a
/// whole-machine interlock) and [`asip_isa::ScalarProgram`] (1–2-wide
/// in-order issue groups); crate-internal, so no other model exists.
///
/// The timing methods act on an [`Issue`] and a ready-time scoreboard, so
/// the one rule serves both the static replay that builds superops
/// (against a chain-local scoreboard) and the exact per-pc slow path
/// (against the run's).
pub trait IssueModel: Clone + fmt::Debug {
    /// The issue-group state carried from one pc to the next; the default
    /// is an empty group, and any other state is an open one (an I-cache
    /// miss closes it, one cycle later).
    type Group: Copy + Default + PartialEq + fmt::Debug;
    /// The entry state of a block's half-open replay variant.
    const HALF_OPEN: Self::Group;
    /// Cycles a taken transfer or a halt adds to close the issue group
    /// open at that point: a VLIW bundle's cycle is already counted when
    /// it issues, a scalar group closes lazily.
    const CLOSE: u64;
    /// Whether a pc can hold several ops whose order could observe each
    /// other's results (a VLIW bundle); a scalar instruction cannot, so
    /// its executor never checks for deferred results.
    const DEFERS: bool;

    /// Static validation against `machine`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] naming the first violation.
    fn validate(&self, machine: &MachineDescription) -> Result<(), SimError>;

    /// The program's directories.
    fn directory(&self) -> Directory<'_>;

    /// Decode a validated program for `machine`.
    fn decode(&self, machine: &MachineDescription) -> Decoded;

    /// Run the program on the interpretive oracle ([`crate::reference`]).
    ///
    /// # Errors
    ///
    /// Any [`SimError`].
    fn reference(
        &self,
        machine: &MachineDescription,
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
        opts: SimOptions,
    ) -> Result<SimResult, SimError>;

    /// Issue `pc`: advance `t` past any structural break and interlock
    /// stall (against `ready`) to `pc`'s issue cycle, counting stalls and
    /// opened groups.
    fn issue(d: &Decoded, t: &mut Issue<Self::Group>, ready: &[u64], pc: u32);

    /// `pc` has issued and run: what that does to the issue state before
    /// any taken transfer or halt closes it.
    fn issued(d: &Decoded, t: &mut Issue<Self::Group>, pc: u32);

    /// Entering the block that starts at `pc` with group state `g`:
    /// whether it runs as its half-open replay variant (`HALF_OPEN`, else
    /// the empty-group one), and the cycles by which the variant's entry
    /// trails the current cycle.
    fn entry(d: &Decoded, g: Self::Group, pc: u32) -> (bool, u64);
}
