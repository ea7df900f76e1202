//! Machine-code container for scalar ([`TargetKind::Scalar`]) targets.
//!
//! A scalar binary is a *linear* instruction stream: one [`MachineOp`] per
//! program point, no issue bundles, no encoded width. This is exactly the
//! paper's §2.2 "binary-compatible" property — the same stream runs on the
//! 1-issue `scalar1` and the 2-issue `scalar2`, because pairing happens in
//! the hardware, not in the encoding. Branch targets are instruction
//! indices; calls carry function ids, like
//! [`VliwProgram`](crate::code::VliwProgram).

use crate::code::{CodeError, FuncSym, GlobalSym, MachineOp};
use crate::custom::CustomOpDef;
use crate::encoding::compact_eligible;
use crate::machine::{Encoding, MachineDescription, TargetKind};
use crate::op::Opcode;

/// Encoded size in bytes of one scalar instruction under `enc`.
///
/// Scalar code has no bundle structure, so [`Encoding::Uncompressed`] and
/// [`Encoding::StopBit`] both cost one 32-bit word per instruction;
/// [`Encoding::Compact16`] halves eligible instructions (Thumb/RVC style).
pub fn scalar_inst_bytes(op: &MachineOp, enc: Encoding) -> u32 {
    match enc {
        Encoding::Uncompressed | Encoding::StopBit => 4,
        Encoding::Compact16 => {
            if compact_eligible(op) {
                2
            } else {
                4
            }
        }
    }
}

/// Byte layout of a scalar program in instruction memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarLayout {
    /// Byte address of each instruction, in program order.
    pub inst_addr: Vec<u32>,
    /// Total code bytes.
    pub total_bytes: u32,
}

/// A complete linked scalar executable for one machine description.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScalarProgram {
    /// Name of the machine description this program was compiled for.
    pub machine: String,
    /// The linear instruction stream (branch targets index into it).
    pub insts: Vec<MachineOp>,
    /// Function directory (calls use indices into this table).
    pub functions: Vec<FuncSym>,
    /// Global data directory.
    pub globals: Vec<GlobalSym>,
    /// Custom operations referenced by `Opcode::Custom` ids in the code.
    pub custom_ops: Vec<CustomOpDef>,
    /// Index into `functions` of the entry function (`main`).
    pub entry_func: u32,
    /// Total words of static data (globals are below this watermark).
    pub data_words: u32,
}

impl ScalarProgram {
    /// Number of instructions (NOP fillers included).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Executable (non-NOP) instruction count.
    pub fn total_ops(&self) -> usize {
        self.insts
            .iter()
            .filter(|op| op.opcode != Opcode::Nop)
            .count()
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&FuncSym> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalSym> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Compute the byte layout under `enc`.
    pub fn layout(&self, enc: Encoding) -> ScalarLayout {
        let mut addr = 0u32;
        let mut inst_addr = Vec::with_capacity(self.insts.len());
        for op in &self.insts {
            inst_addr.push(addr);
            addr += scalar_inst_bytes(op, enc);
        }
        ScalarLayout {
            inst_addr,
            total_bytes: addr,
        }
    }

    /// Code size in bytes under a specific encoding scheme.
    pub fn code_bytes(&self, enc: Encoding) -> u32 {
        self.layout(enc).total_bytes
    }

    /// Statically verify the program against a machine description.
    ///
    /// Mirrors [`VliwProgram::validate`]: the toolchain's final safety net
    /// before simulation. Scalar code additionally requires a single-cluster
    /// register file and a machine whose units cover every opcode used.
    ///
    /// # Errors
    ///
    /// The first [`CodeError`] encountered.
    ///
    /// [`VliwProgram::validate`]: crate::code::VliwProgram::validate
    pub fn validate(&self, m: &MachineDescription) -> Result<(), CodeError> {
        if self.entry_func as usize >= self.functions.len() {
            return Err(CodeError::BadEntry);
        }
        crate::code::check_memories(self.data_words, m)?;
        for (fi, func) in self.functions.iter().enumerate() {
            if func.entry as usize >= self.insts.len() {
                return Err(CodeError::BadFuncEntry {
                    func: fi,
                    entry: func.entry,
                });
            }
        }
        for (i, op) in self.insts.iter().enumerate() {
            if !m.has_fu(op.opcode.fu_kind()) {
                return Err(CodeError::BadSlot {
                    bundle: i,
                    slot: 0,
                    opcode: op.opcode.to_string(),
                });
            }
            if let Opcode::Custom(id) = op.opcode {
                if self.custom_ops.get(id as usize).is_none() {
                    return Err(CodeError::BadCustomId { bundle: i, id });
                }
            }
            for r in op.reads().chain(op.dsts.iter().copied()) {
                if r.cluster != 0 || r.index >= m.regs_per_cluster {
                    return Err(CodeError::BadReg { bundle: i, reg: r });
                }
            }
            match op.opcode {
                Opcode::Br | Opcode::BrT | Opcode::BrF
                    if op.target as usize >= self.insts.len() =>
                {
                    return Err(CodeError::BadTarget {
                        bundle: i,
                        target: op.target,
                    });
                }
                Opcode::Call if op.target as usize >= self.functions.len() => {
                    return Err(CodeError::BadCallee {
                        bundle: i,
                        target: op.target,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Produce a human-readable assembly listing.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (fi, func) in self.functions.iter().enumerate() {
            let _ = writeln!(
                s,
                "; fn {} (id {fi}) entry @{} frame {} args {}",
                func.name, func.entry, func.frame_words, func.num_args
            );
        }
        for (i, op) in self.insts.iter().enumerate() {
            if let Some(func) = self.functions.iter().find(|f| f.entry as usize == i) {
                let _ = writeln!(s, "{}:", func.name);
            }
            let _ = writeln!(s, "{i:5}: {op}");
        }
        s
    }
}

/// Flatten a width-1 [`VliwProgram`] into a [`ScalarProgram`].
///
/// The scalar backend schedules against a 1-slot view of the machine, so
/// every bundle carries at most one operation and bundle indices equal
/// instruction indices — branch targets transfer unchanged. Empty bundles
/// (block-alignment padding) become explicit NOPs so every block keeps an
/// address.
///
/// [`VliwProgram`]: crate::code::VliwProgram
pub fn from_width1(prog: &crate::code::VliwProgram, target: &MachineDescription) -> ScalarProgram {
    debug_assert_eq!(target.target, TargetKind::Scalar);
    let insts = prog
        .bundles
        .iter()
        .map(|b| {
            debug_assert!(b.occupancy() <= 1, "width-1 schedule has one op per bundle");
            b.ops()
                .next()
                .map(|(_, op)| op.clone())
                .unwrap_or_else(MachineOp::nop)
        })
        .collect();
    ScalarProgram {
        machine: target.name.clone(),
        insts,
        functions: prog.functions.clone(),
        globals: prog.globals.clone(),
        custom_ops: prog.custom_ops.clone(),
        entry_func: prog.entry_func,
        data_words: prog.data_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Operand, Reg};

    fn tiny_prog() -> ScalarProgram {
        let mut add = MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 1)],
            vec![Operand::Imm(2), Operand::Imm(3)],
        );
        add.imm = 0;
        ScalarProgram {
            machine: "scalar1".into(),
            insts: vec![add, MachineOp::new(Opcode::Halt, vec![], vec![])],
            functions: vec![FuncSym {
                name: "main".into(),
                entry: 0,
                frame_words: 0,
                num_args: 0,
            }],
            globals: vec![],
            custom_ops: vec![],
            entry_func: 0,
            data_words: 0,
        }
    }

    #[test]
    fn valid_program_passes() {
        let m = MachineDescription::scalar1();
        let p = tiny_prog();
        assert_eq!(p.validate(&m), Ok(()));
        assert_eq!(p.total_ops(), 2);
        assert!(p.listing().contains("main:"));
    }

    #[test]
    fn missing_unit_detected() {
        // scalar2's first slot has no Mul — but the machine as a whole does;
        // strip it to provoke the error.
        let m = MachineDescription::scalar1().derive("nomul", |m| {
            m.target = TargetKind::Scalar;
            m.slots = vec![crate::machine::Slot::new(&[
                crate::op::FuKind::Alu,
                crate::op::FuKind::Mem,
                crate::op::FuKind::Branch,
            ])];
        });
        let mut p = tiny_prog();
        p.insts[0] = MachineOp::new(
            Opcode::Mul,
            vec![Reg::new(0, 1)],
            vec![Operand::Imm(2), Operand::Imm(3)],
        );
        assert!(matches!(p.validate(&m), Err(CodeError::BadSlot { .. })));
    }

    #[test]
    fn clustered_registers_rejected() {
        let m = MachineDescription::scalar1();
        let mut p = tiny_prog();
        p.insts[0].dsts[0] = Reg::new(1, 1);
        assert!(matches!(p.validate(&m), Err(CodeError::BadReg { .. })));
        p.insts[0].dsts[0] = Reg::new(0, 999);
        assert!(matches!(p.validate(&m), Err(CodeError::BadReg { .. })));
    }

    #[test]
    fn function_entry_range_checked() {
        let m = MachineDescription::scalar1();
        let mut p = tiny_prog();
        p.functions[0].entry = 99;
        assert_eq!(
            p.validate(&m),
            Err(CodeError::BadFuncEntry { func: 0, entry: 99 })
        );
    }

    #[test]
    fn branch_targets_checked() {
        let m = MachineDescription::scalar1();
        let mut p = tiny_prog();
        let mut br = MachineOp::new(Opcode::Br, vec![], vec![]);
        br.target = 99;
        p.insts[0] = br;
        assert!(matches!(
            p.validate(&m),
            Err(CodeError::BadTarget { target: 99, .. })
        ));
    }

    #[test]
    fn code_bytes_follow_encoding() {
        let p = tiny_prog();
        assert_eq!(p.code_bytes(Encoding::Uncompressed), 8);
        assert_eq!(p.code_bytes(Encoding::StopBit), 8);
        // Both the add (low regs, small imms) and the bare halt fit the
        // 16-bit compact form.
        assert_eq!(p.code_bytes(Encoding::Compact16), 4);
        let l = p.layout(Encoding::Compact16);
        assert_eq!(l.inst_addr, vec![0, 2]);
    }
}
