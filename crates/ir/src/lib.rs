//! # asip-ir — the retargetable compiler's intermediate representation
//!
//! Three-address, non-SSA IR with virtual registers, modelled on the
//! Multiflow-descended ILP compilers behind *"Customized Instruction-Sets
//! for Embedded Processors"* (Fisher, DAC 1999). The crate provides:
//!
//! * IR types and structural verification ([`inst`], [`func`]);
//! * CFG analyses: predecessors, reverse postorder, dominators, natural
//!   loops ([`cfg`](mod@cfg)) and dataflow liveness ([`liveness`]) over
//!   the word bitsets of [`bitset`];
//! * a reference **interpreter** that doubles as golden model and profiler
//!   ([`interp`]);
//! * the classic ILP **optimization pipeline**: constant folding, local
//!   value numbering, dead-code elimination, CFG simplification,
//!   if-conversion, loop-invariant code motion, whole-loop unrolling and
//!   function inlining ([`passes`]).
//!
//! Arithmetic semantics are shared with the machine ISA via
//! [`asip_isa::Opcode`], so the constant folder, the interpreter and the
//! hardware simulator can never disagree.
//!
//! ## Example
//!
//! ```
//! use asip_ir::func::{Block, Function, Module};
//! use asip_ir::inst::{Inst, Terminator, Val};
//! use asip_isa::Opcode;
//!
//! // main() { emit 6 * 7; }
//! let mut f = Function::new("main", 0, false);
//! let v = f.new_vreg();
//! f.blocks[0] = Block {
//!     insts: vec![
//!         Inst::Bin { op: Opcode::Mul, dst: v, a: Val::Imm(6), b: Val::Imm(7) },
//!         Inst::Emit { val: Val::Reg(v) },
//!     ],
//!     term: Terminator::Ret(None),
//! };
//! let mut module = Module { funcs: vec![f], globals: vec![], custom_ops: vec![] };
//!
//! // Optimize and interpret.
//! asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
//! let result = asip_ir::interp::run_module(&module, "main", &[]).unwrap();
//! assert_eq!(result.output, vec![42]);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod cfg;
pub mod codec;
pub mod func;
pub mod inst;
pub mod interp;
pub mod liveness;
pub mod passes;

pub use func::{Block, Function, GlobalData, LocalData, Module, VerifyError};
pub use inst::{Addr, AddrBase, BlockId, FuncId, GlobalId, Inst, LocalSlot, Terminator, VReg, Val};
pub use interp::{InterpError, InterpOptions, InterpResult, Profile};
