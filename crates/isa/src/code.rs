//! Machine-code containers: operations, bundles and whole VLIW programs.

use crate::custom::CustomOpDef;
use crate::machine::{ICacheConfig, MachineDescription, MachineError};
use crate::op::Opcode;
use crate::reg::{Operand, Reg};
use std::fmt;

/// One machine operation occupying one issue slot.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOp {
    /// Operation to perform.
    pub opcode: Opcode,
    /// Destination registers (0, 1, or 2 for dual-output custom ops).
    pub dsts: Vec<Reg>,
    /// Source operands.
    pub srcs: Vec<Operand>,
    /// Immediate field: memory offset for `Ldw`/`Stw`, SP adjustment for
    /// `AddSp`; unused otherwise.
    pub imm: i32,
    /// Branch/call target: bundle index for branches, function id for calls.
    pub target: u32,
}

impl MachineOp {
    /// A plain `opcode dst, srcs...` operation.
    pub fn new(opcode: Opcode, dsts: Vec<Reg>, srcs: Vec<Operand>) -> MachineOp {
        MachineOp {
            opcode,
            dsts,
            srcs,
            imm: 0,
            target: 0,
        }
    }

    /// A no-operation filler.
    pub fn nop() -> MachineOp {
        MachineOp::new(Opcode::Nop, vec![], vec![])
    }

    /// The single destination, if the op has exactly one.
    pub fn dst(&self) -> Option<Reg> {
        if self.dsts.len() == 1 {
            Some(self.dsts[0])
        } else {
            None
        }
    }

    /// Registers read by this operation.
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|s| s.reg())
    }

    /// Render with a resolver for branch-target display.
    fn fmt_with(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                write!(f, " ")
            } else {
                write!(f, ", ")
            }
        };
        for d in &self.dsts {
            sep(f)?;
            write!(f, "{d}")?;
        }
        for s in &self.srcs {
            sep(f)?;
            write!(f, "{s}")?;
        }
        if self.opcode.has_imm_field() {
            sep(f)?;
            write!(f, "[{}]", self.imm)?;
        }
        if self.opcode.has_target() {
            sep(f)?;
            write!(f, "@{}", self.target)?;
        }
        Ok(())
    }
}

impl fmt::Display for MachineOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(f)
    }
}

/// One long instruction: `issue_width` slots, issued together in one cycle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bundle {
    /// Slot contents; `None` is an empty (NOP) slot. Slot `i` of cluster `c`
    /// lives at index `c * slots_per_cluster + i`.
    pub slots: Vec<Option<MachineOp>>,
}

impl Bundle {
    /// An empty bundle with `width` slots.
    pub fn empty(width: usize) -> Bundle {
        Bundle {
            slots: vec![None; width],
        }
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterate over occupied slots as `(slot_index, op)`.
    pub fn ops(&self) -> impl Iterator<Item = (usize, &MachineOp)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|op| (i, op)))
    }

    /// The control-transfer op in this bundle, if any.
    pub fn control_op(&self) -> Option<&MachineOp> {
        self.ops()
            .map(|(_, op)| op)
            .find(|op| op.opcode.is_control())
    }
}

/// A named function within a program.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSym {
    /// Source-level name.
    pub name: String,
    /// Bundle index of the entry point.
    pub entry: u32,
    /// Words of stack frame (locals + spills) the function allocates.
    pub frame_words: u32,
    /// Number of word-sized arguments.
    pub num_args: u32,
}

/// A global data object with its placement and initial contents.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalSym {
    /// Source-level name.
    pub name: String,
    /// Word address of the first element.
    pub addr: u32,
    /// Size in words.
    pub words: u32,
    /// Initial values (shorter than `words` means zero-fill).
    pub init: Vec<i32>,
}

/// A complete linked VLIW executable for one machine description.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VliwProgram {
    /// Name of the machine description this program was compiled for.
    pub machine: String,
    /// The instruction stream.
    pub bundles: Vec<Bundle>,
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

/// Errors found by [`VliwProgram::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum CodeError {
    /// A bundle is wider than the machine's issue width.
    WidthMismatch {
        bundle: usize,
        got: usize,
        want: usize,
    },
    /// An op sits in a slot that cannot host its FU kind.
    BadSlot {
        bundle: usize,
        slot: usize,
        opcode: String,
    },
    /// An op names a register outside the machine's register file.
    BadReg { bundle: usize, reg: Reg },
    /// A branch targets a bundle outside the program.
    BadTarget { bundle: usize, target: u32 },
    /// A call targets a nonexistent function.
    BadCallee { bundle: usize, target: u32 },
    /// Two ops in one bundle write the same register.
    WriteConflict { bundle: usize, reg: Reg },
    /// More than one control op in a bundle.
    TwoBranches { bundle: usize },
    /// `Opcode::Custom` id with no matching definition.
    BadCustomId { bundle: usize, id: u16 },
    /// The entry function index is out of range.
    BadEntry,
    /// A function's entry points outside the instruction stream.
    BadFuncEntry { func: usize, entry: u32 },
    /// The static data does not fit the machine's data memory.
    DataTooLarge { data_words: u32, dmem_words: u32 },
    /// The machine's I-cache geometry cannot be modelled (see
    /// [`ICacheConfig::is_modelable`]).
    BadICache(ICacheConfig),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::WidthMismatch { bundle, got, want } => {
                write!(f, "bundle {bundle}: width {got} != machine width {want}")
            }
            CodeError::BadSlot {
                bundle,
                slot,
                opcode,
            } => {
                write!(f, "bundle {bundle} slot {slot}: cannot host {opcode}")
            }
            CodeError::BadReg { bundle, reg } => {
                write!(
                    f,
                    "bundle {bundle}: register {reg} outside the machine file"
                )
            }
            CodeError::BadTarget { bundle, target } => {
                write!(f, "bundle {bundle}: branch to nonexistent bundle {target}")
            }
            CodeError::BadCallee { bundle, target } => {
                write!(f, "bundle {bundle}: call to nonexistent function {target}")
            }
            CodeError::WriteConflict { bundle, reg } => {
                write!(f, "bundle {bundle}: two writes to {reg}")
            }
            CodeError::TwoBranches { bundle } => {
                write!(f, "bundle {bundle}: more than one control operation")
            }
            CodeError::BadCustomId { bundle, id } => {
                write!(f, "bundle {bundle}: undefined custom op {id}")
            }
            CodeError::BadEntry => write!(f, "entry function index out of range"),
            CodeError::BadFuncEntry { func, entry } => {
                write!(f, "function {func}: entry @{entry} outside the program")
            }
            CodeError::DataTooLarge {
                data_words,
                dmem_words,
            } => write!(
                f,
                "{data_words} words of static data exceed the {dmem_words}-word data memory"
            ),
            CodeError::BadICache(c) => MachineError::BadICache(*c).fmt(f),
        }
    }
}

impl std::error::Error for CodeError {}

/// The memories a program runs in. Every global lives below `data_words`,
/// so a program whose static data fits the machine's data memory can load
/// all of its globals and inputs; and the simulator must be able to model
/// the machine's I-cache, which a table built by hand need not guarantee.
pub(crate) fn check_memories(data_words: u32, m: &MachineDescription) -> Result<(), CodeError> {
    if data_words > m.dmem_words {
        return Err(CodeError::DataTooLarge {
            data_words,
            dmem_words: m.dmem_words,
        });
    }
    if let Some(c) = m.icache.filter(|c| !c.is_modelable()) {
        return Err(CodeError::BadICache(c));
    }
    Ok(())
}

impl VliwProgram {
    /// Number of bundles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// Whether the program has no bundles.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// Total occupied slots (dynamic NOPs excluded).
    pub fn total_ops(&self) -> usize {
        self.bundles.iter().map(|b| b.occupancy()).sum()
    }

    /// Mean slot occupancy across all bundles (a compile-time ILP measure).
    pub fn mean_occupancy(&self) -> f64 {
        if self.bundles.is_empty() {
            return 0.0;
        }
        self.total_ops() as f64 / self.bundles.len() as f64
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&FuncSym> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalSym> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Statically verify the program against a machine description.
    ///
    /// This is the toolchain's final safety net: anything the scheduler or
    /// allocator got structurally wrong is caught here, before simulation.
    ///
    /// # Errors
    ///
    /// The first [`CodeError`] encountered.
    pub fn validate(&self, m: &MachineDescription) -> Result<(), CodeError> {
        let width = m.issue_width();
        let spc = m.slots_per_cluster();
        if self.entry_func as usize >= self.functions.len() {
            return Err(CodeError::BadEntry);
        }
        check_memories(self.data_words, m)?;
        for (fi, func) in self.functions.iter().enumerate() {
            if func.entry as usize >= self.bundles.len() {
                return Err(CodeError::BadFuncEntry {
                    func: fi,
                    entry: func.entry,
                });
            }
        }
        for (bi, bundle) in self.bundles.iter().enumerate() {
            if bundle.slots.len() != width {
                return Err(CodeError::WidthMismatch {
                    bundle: bi,
                    got: bundle.slots.len(),
                    want: width,
                });
            }
            let mut writes: Vec<Reg> = Vec::new();
            let mut controls = 0usize;
            for (si, op) in bundle.ops() {
                let slot_in_cluster = si % spc;
                if !m.slots[slot_in_cluster].hosts(op.opcode.fu_kind()) {
                    return Err(CodeError::BadSlot {
                        bundle: bi,
                        slot: si,
                        opcode: op.opcode.to_string(),
                    });
                }
                if let Opcode::Custom(id) = op.opcode {
                    if self.custom_ops.get(id as usize).is_none() {
                        return Err(CodeError::BadCustomId { bundle: bi, id });
                    }
                }
                for r in op.reads().chain(op.dsts.iter().copied()) {
                    if r.cluster >= m.clusters || r.index >= m.regs_per_cluster {
                        return Err(CodeError::BadReg { bundle: bi, reg: r });
                    }
                }
                for &d in &op.dsts {
                    if !d.is_zero() && writes.contains(&d) {
                        return Err(CodeError::WriteConflict { bundle: bi, reg: d });
                    }
                    writes.push(d);
                }
                if op.opcode.is_control() {
                    controls += 1;
                    if controls > 1 {
                        return Err(CodeError::TwoBranches { bundle: bi });
                    }
                }
                match op.opcode {
                    Opcode::Br | Opcode::BrT | Opcode::BrF
                        if op.target as usize >= self.bundles.len() =>
                    {
                        return Err(CodeError::BadTarget {
                            bundle: bi,
                            target: op.target,
                        });
                    }
                    Opcode::Call if op.target as usize >= self.functions.len() => {
                        return Err(CodeError::BadCallee {
                            bundle: bi,
                            target: op.target,
                        });
                    }
                    _ => {}
                }
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
        for (bi, b) in self.bundles.iter().enumerate() {
            if let Some(func) = self.functions.iter().find(|f| f.entry as usize == bi) {
                let _ = writeln!(s, "{}:", func.name);
            }
            let _ = write!(s, "{bi:5}: ");
            let mut first = true;
            for (si, op) in b.ops() {
                if !first {
                    let _ = write!(s, " || ");
                }
                first = false;
                let _ = write!(s, "[{si}] {op}");
            }
            if first {
                let _ = write!(s, "nop");
            }
            let _ = writeln!(s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDescription;

    fn tiny_prog(m: &MachineDescription) -> VliwProgram {
        let w = m.issue_width();
        let mut b0 = Bundle::empty(w);
        b0.slots[0] = Some(MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 1)],
            vec![Operand::Imm(2), Operand::Imm(3)],
        ));
        let mut b1 = Bundle::empty(w);
        b1.slots[0] = Some(MachineOp::new(Opcode::Halt, vec![], vec![]));
        VliwProgram {
            machine: m.name.clone(),
            bundles: vec![b0, b1],
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
        let m = MachineDescription::ember1();
        let p = tiny_prog(&m);
        assert_eq!(p.validate(&m), Ok(()));
        assert_eq!(p.total_ops(), 2);
        assert!((p.mean_occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn width_mismatch_detected() {
        let m1 = MachineDescription::ember1();
        let m4 = MachineDescription::ember4();
        let p = tiny_prog(&m1);
        assert!(matches!(
            p.validate(&m4),
            Err(CodeError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn bad_slot_detected() {
        let m = MachineDescription::ember4();
        let mut p = tiny_prog(&m);
        // Slot 2 of ember4 hosts Alu+Custom, not Mem.
        p.bundles[0].slots[2] = Some(MachineOp::new(
            Opcode::Ldw,
            vec![Reg::new(0, 2)],
            vec![Operand::Reg(Reg::ZERO)],
        ));
        assert!(matches!(
            p.validate(&m),
            Err(CodeError::BadSlot { slot: 2, .. })
        ));
    }

    #[test]
    fn bad_register_detected() {
        let m = MachineDescription::ember1();
        let mut p = tiny_prog(&m);
        p.bundles[0].slots[0] = Some(MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 200)],
            vec![Operand::Imm(0), Operand::Imm(0)],
        ));
        assert!(matches!(p.validate(&m), Err(CodeError::BadReg { .. })));
    }

    #[test]
    fn write_conflict_detected() {
        let m = MachineDescription::ember4();
        let mut p = tiny_prog(&m);
        let op = MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 3)],
            vec![Operand::Imm(1), Operand::Imm(1)],
        );
        p.bundles[0].slots[1] = Some(op.clone());
        p.bundles[0].slots[2] = Some(op);
        assert!(matches!(
            p.validate(&m),
            Err(CodeError::WriteConflict { .. })
        ));
    }

    #[test]
    fn branch_target_checked() {
        let m = MachineDescription::ember1();
        let mut p = tiny_prog(&m);
        let mut br = MachineOp::new(Opcode::Br, vec![], vec![]);
        br.target = 99;
        p.bundles[0].slots[0] = Some(br);
        assert!(matches!(
            p.validate(&m),
            Err(CodeError::BadTarget { target: 99, .. })
        ));
    }

    #[test]
    fn custom_id_checked() {
        let m = MachineDescription::ember1();
        let mut p = tiny_prog(&m);
        p.bundles[0].slots[0] = Some(MachineOp::new(
            Opcode::Custom(5),
            vec![Reg::new(0, 1)],
            vec![Operand::Imm(1)],
        ));
        assert!(matches!(
            p.validate(&m),
            Err(CodeError::BadCustomId { id: 5, .. })
        ));
    }

    #[test]
    fn listing_mentions_functions_and_ops() {
        let m = MachineDescription::ember1();
        let p = tiny_prog(&m);
        let l = p.listing();
        assert!(l.contains("main:"));
        assert!(l.contains("add"));
        assert!(l.contains("halt"));
    }

    #[test]
    fn bundle_helpers() {
        let m = MachineDescription::ember4();
        let p = tiny_prog(&m);
        assert_eq!(p.bundles[0].occupancy(), 1);
        assert!(p.bundles[0].control_op().is_none());
        assert!(p.bundles[1].control_op().is_some());
    }
}
