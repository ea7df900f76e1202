//! # asip-isa — table-driven machine descriptions for customized embedded CPUs
//!
//! This crate is the foundation of an ASIP (application-specific
//! instruction-set processor) toolchain reproducing *"Customized
//! Instruction-Sets for Embedded Processors"* (J. A. Fisher, DAC 1999). It
//! defines:
//!
//! * the **base operation repertoire** shared by a whole architecture family
//!   and its exact arithmetic semantics ([`op`]);
//! * **machine descriptions** — one table per family member, covering every
//!   customization axis the paper lists in §1.2: issue slots and functional
//!   units, register-file size, clusters, latencies, custom operations,
//!   idle-slot gating, and instruction encoding ([`machine`], [`desc`]);
//! * **executable custom operations** — dataflow graphs of base ops collapsed
//!   into single instructions, evaluable by any simulator ([`custom`]);
//! * **machine code** containers with static validation ([`code`]);
//! * **code-size** models of the instruction encodings ([`encoding`]);
//! * first-order **hardware models** for area, cycle time and energy
//!   ([`hwmodel`]);
//! * the lazily-zeroed **data-memory image** that the IR interpreter and
//!   the simulators run against ([`image`]).
//!
//! Everything downstream — compiler backend, simulator, custom-instruction
//! selection, design-space exploration, binary translation — is written
//! against these tables and nothing else, which is precisely the "mass
//! customization of toolchains" discipline the paper prescribes (§3.1).
//!
//! ## Example
//!
//! ```
//! use asip_isa::{FuKind, MachineDescription, Opcode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Describe a 3-issue family member with a slow multiplier.
//! let m = MachineDescription::builder("demo3")
//!     .registers(24)
//!     .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
//!     .slot(&[FuKind::Alu, FuKind::Mul])
//!     .slot(&[FuKind::Alu])
//!     .lat_mul(3)
//!     .build()?;
//! assert_eq!(m.issue_width(), 3);
//! assert_eq!(m.latency(Opcode::Mul), 3);
//!
//! // The description round-trips through the text DSL.
//! let text = asip_isa::desc::print_machine(&m);
//! let back = asip_isa::desc::parse_machine(&text)?;
//! assert!(asip_isa::desc::same_architecture(&m, &back));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod code;
pub mod codec;
pub mod custom;
pub mod desc;
pub mod encoding;
pub mod hwmodel;
pub mod image;
pub mod machine;
pub mod op;
pub mod reg;
pub mod scalar;

pub use code::{Bundle, CodeError, FuncSym, GlobalSym, MachineOp, VliwProgram};
pub use codec::{Codec, CodecError, Reader, Writer};
pub use custom::{CustomOpDef, CustomOpError, PatNode, PatRef};
pub use hwmodel::{ActivityCounts, AreaBreakdown, CycleTime, EnergyBreakdown};
pub use machine::{Encoding, ICacheConfig, MachineDescription, MachineError, Slot, TargetKind};
pub use op::{EvalError, FuKind, LatClass, Opcode};
pub use reg::{Operand, Reg};
pub use scalar::{ScalarLayout, ScalarProgram};
