//! Functions, basic blocks and modules.

use crate::inst::{AddrBase, BlockId, FuncId, GlobalId, Inst, LocalSlot, Terminator, VReg};
use asip_isa::CustomOpDef;
use std::cell::Cell;
use std::fmt;

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    /// An empty block falling through to `next`.
    pub fn jump_to(next: BlockId) -> Block {
        Block {
            insts: Vec::new(),
            term: Terminator::Jump(next),
        }
    }
}

/// A stack-allocated local array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalData {
    /// Source name (diagnostics only).
    pub name: String,
    /// Size in words.
    pub words: u32,
}

/// A function: CFG of basic blocks over one virtual-register pool.
///
/// The first `num_params` virtual registers (`v0..`) hold the arguments on
/// entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Source name.
    pub name: String,
    /// Number of word-sized parameters.
    pub num_params: u32,
    /// Whether the function returns a value.
    pub returns_value: bool,
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block (always `BlockId(0)` by construction).
    pub entry: BlockId,
    /// Stack-allocated arrays.
    pub locals: Vec<LocalData>,
    /// One past the highest virtual-register number in use.
    pub num_vregs: u32,
}

impl Function {
    /// Create an empty function with a single entry block that returns.
    pub fn new(name: &str, num_params: u32, returns_value: bool) -> Function {
        Function {
            name: name.to_string(),
            num_params,
            returns_value,
            blocks: vec![Block {
                insts: Vec::new(),
                term: Terminator::Ret(None),
            }],
            entry: BlockId(0),
            locals: Vec::new(),
            num_vregs: num_params,
        }
    }

    /// Allocate a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let r = VReg(self.num_vregs);
        self.num_vregs += 1;
        r
    }

    /// Append a new block, returning its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            insts: Vec::new(),
            term: Terminator::Ret(None),
        });
        id
    }

    /// Access a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Access a block mutably.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Total instruction count (terminators excluded).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Iterate over `(BlockId, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }
}

/// A module global: name, size, optional initializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalData {
    /// Source name.
    pub name: String,
    /// Size in words.
    pub words: u32,
    /// Initial contents (zero-filled beyond `init.len()`).
    pub init: Vec<i32>,
}

/// A whole program: functions, globals and the custom-operation library.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<GlobalData>,
    /// Custom operations referenced by `Inst::Custom`.
    pub custom_ops: Vec<CustomOpDef>,
}

impl Module {
    /// Find a function id by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Find a global id by name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Access a function by id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Total instruction count across all functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insts()).sum()
    }
}

/// Structural verification error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum VerifyError {
    /// A terminator references a block that does not exist.
    BadBlockRef {
        func: String,
        from: BlockId,
        to: BlockId,
    },
    /// An instruction uses a virtual register ≥ `num_vregs`.
    BadVReg {
        func: String,
        block: BlockId,
        vreg: VReg,
    },
    /// An instruction references a nonexistent global.
    BadGlobal { func: String, global: GlobalId },
    /// An instruction references a nonexistent local slot.
    BadLocal { func: String, local: LocalSlot },
    /// A call references a nonexistent function.
    BadCallee { func: String, callee: FuncId },
    /// A call passes the wrong number of arguments.
    BadArity {
        func: String,
        callee: String,
        expected: usize,
        got: usize,
    },
    /// A custom instruction references a nonexistent custom op or has the
    /// wrong operand counts.
    BadCustom { func: String, id: u16 },
    /// The function entry is not block 0 or there are no blocks.
    BadEntry { func: String },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadBlockRef { func, from, to } => {
                write!(f, "{func}: {from} jumps to nonexistent {to}")
            }
            VerifyError::BadVReg { func, block, vreg } => {
                write!(f, "{func}/{block}: register {vreg} out of range")
            }
            VerifyError::BadGlobal { func, global } => {
                write!(f, "{func}: nonexistent global g{}", global.0)
            }
            VerifyError::BadLocal { func, local } => {
                write!(f, "{func}: nonexistent local {}", local.0)
            }
            VerifyError::BadCallee { func, callee } => {
                write!(f, "{func}: call to nonexistent function f{}", callee.0)
            }
            VerifyError::BadArity {
                func,
                callee,
                expected,
                got,
            } => {
                write!(
                    f,
                    "{func}: call to {callee} with {got} args, expected {expected}"
                )
            }
            VerifyError::BadCustom { func, id } => {
                write!(f, "{func}: bad custom op reference {id}")
            }
            VerifyError::BadEntry { func } => write!(f, "{func}: malformed entry block"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify structural invariants of a module.
///
/// # Errors
///
/// The first [`VerifyError`] found.
pub fn verify(module: &Module) -> Result<(), VerifyError> {
    for func in &module.funcs {
        if func.blocks.is_empty() || func.entry != BlockId(0) {
            return Err(VerifyError::BadEntry {
                func: func.name.clone(),
            });
        }
        for (bi, block) in func.iter_blocks() {
            let mut bad_succ = None;
            block.term.for_each_successor(|succ| {
                if succ.0 as usize >= func.blocks.len() {
                    bad_succ.get_or_insert(succ);
                }
            });
            if let Some(to) = bad_succ {
                return Err(VerifyError::BadBlockRef {
                    func: func.name.clone(),
                    from: bi,
                    to,
                });
            }
            // The first register at or above `num_vregs`, in operand order.
            let bad_vreg = Cell::new(None);
            let check_vreg = |v: VReg| {
                if v.0 >= func.num_vregs && bad_vreg.get().is_none() {
                    bad_vreg.set(Some(v));
                }
            };
            let bad_vreg_err = |vreg: VReg| VerifyError::BadVReg {
                func: func.name.clone(),
                block: bi,
                vreg,
            };
            block.term.for_each_use(check_vreg);
            if let Some(v) = bad_vreg.get() {
                return Err(bad_vreg_err(v));
            }
            for inst in &block.insts {
                inst.for_each_use(check_vreg);
                inst.for_each_def(check_vreg);
                if let Some(v) = bad_vreg.get() {
                    return Err(bad_vreg_err(v));
                }
                let check_addr = |base: AddrBase| -> Result<(), VerifyError> {
                    match base {
                        AddrBase::Global(g) if g.0 as usize >= module.globals.len() => {
                            Err(VerifyError::BadGlobal {
                                func: func.name.clone(),
                                global: g,
                            })
                        }
                        AddrBase::Local(l) if l.0 as usize >= func.locals.len() => {
                            Err(VerifyError::BadLocal {
                                func: func.name.clone(),
                                local: l,
                            })
                        }
                        _ => Ok(()),
                    }
                };
                match inst {
                    Inst::Lea { addr, .. } | Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                        check_addr(addr.base)?;
                    }
                    Inst::Call {
                        func: callee, args, ..
                    } => {
                        let Some(cf) = module.funcs.get(callee.0 as usize) else {
                            return Err(VerifyError::BadCallee {
                                func: func.name.clone(),
                                callee: *callee,
                            });
                        };
                        if cf.num_params as usize != args.len() {
                            return Err(VerifyError::BadArity {
                                func: func.name.clone(),
                                callee: cf.name.clone(),
                                expected: cf.num_params as usize,
                                got: args.len(),
                            });
                        }
                    }
                    Inst::Custom { id, dsts, args } => {
                        let Some(def) = module.custom_ops.get(*id as usize) else {
                            return Err(VerifyError::BadCustom {
                                func: func.name.clone(),
                                id: *id,
                            });
                        };
                        if args.len() != def.num_inputs as usize || dsts.len() != def.outputs.len()
                        {
                            return Err(VerifyError::BadCustom {
                                func: func.name.clone(),
                                id: *id,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fn {}({} params) {{", self.name, self.num_params)?;
        for (id, b) in self.iter_blocks() {
            writeln!(f, "{id}:")?;
            for i in &b.insts {
                writeln!(f, "    {i}")?;
            }
            writeln!(f, "    {}", b.term)?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(f, "global {} [{} words]", g.name, g.words)?;
        }
        for func in &self.funcs {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Val;
    use asip_isa::Opcode;

    fn sample() -> Module {
        let mut f = Function::new("main", 0, false);
        let v = f.new_vreg();
        f.block_mut(BlockId(0)).insts.push(Inst::Bin {
            op: Opcode::Add,
            dst: v,
            a: Val::Imm(1),
            b: Val::Imm(2),
        });
        f.block_mut(BlockId(0))
            .insts
            .push(Inst::Emit { val: Val::Reg(v) });
        Module {
            funcs: vec![f],
            globals: vec![],
            custom_ops: vec![],
        }
    }

    #[test]
    fn verify_accepts_valid_module() {
        assert_eq!(verify(&sample()), Ok(()));
    }

    #[test]
    fn verify_rejects_bad_block_ref() {
        let mut m = sample();
        m.funcs[0].blocks[0].term = Terminator::Jump(BlockId(9));
        assert!(matches!(verify(&m), Err(VerifyError::BadBlockRef { .. })));
    }

    #[test]
    fn verify_rejects_out_of_range_vreg() {
        let mut m = sample();
        m.funcs[0].blocks[0].insts.push(Inst::Emit {
            val: Val::Reg(VReg(99)),
        });
        assert!(matches!(verify(&m), Err(VerifyError::BadVReg { .. })));
    }

    #[test]
    fn verify_rejects_bad_global() {
        let mut m = sample();
        let v = m.funcs[0].new_vreg();
        m.funcs[0].blocks[0].insts.push(Inst::Load {
            dst: v,
            addr: crate::inst::Addr::global(GlobalId(5)),
        });
        assert!(matches!(verify(&m), Err(VerifyError::BadGlobal { .. })));
    }

    #[test]
    fn verify_rejects_bad_call_arity() {
        let mut m = sample();
        let callee = Function::new("two_args", 2, true);
        m.funcs.push(callee);
        let v = m.funcs[0].new_vreg();
        m.funcs[0].blocks[0].insts.push(Inst::Call {
            dst: Some(v),
            func: FuncId(1),
            args: vec![Val::Imm(1)],
        });
        assert!(matches!(verify(&m), Err(VerifyError::BadArity { .. })));
    }

    #[test]
    fn display_contains_block_labels() {
        let m = sample();
        let s = m.to_string();
        assert!(s.contains("fn main"));
        assert!(s.contains("bb0:"));
        assert!(s.contains("emit"));
    }

    #[test]
    fn new_vreg_monotone() {
        let mut f = Function::new("x", 2, false);
        assert_eq!(f.new_vreg(), VReg(2));
        assert_eq!(f.new_vreg(), VReg(3));
        assert_eq!(f.num_vregs, 4);
    }
}
