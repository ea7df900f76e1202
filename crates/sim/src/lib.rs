//! # asip-sim — cycle-level simulation of customized family members
//!
//! "Fast and accurate simulation of everything" is item 4 of the paper's
//! toolchain discipline (§3.1). Two pipeline models live here, one per
//! [`asip_isa::TargetKind`]; both read the same machine tables the
//! compilers read, so retargeting never requires simulator changes —
//! including application-specific custom operations, which are interpreted
//! from their stored dataflow graphs:
//!
//! * **VLIW** ([`run`]): executes any [`asip_isa::VliwProgram`] with
//!   in-order bundle issue and whole-machine interlock on not-ready
//!   registers (schedule quality shows up as stall cycles, never as wrong
//!   answers);
//! * **Scalar** ([`scalar`]): executes any [`asip_isa::ScalarProgram`] on
//!   an in-order 1–2-issue pipeline with result forwarding, load-use and
//!   taken-branch stalls — the measured §2.2 "binary-compatible" baseline.
//!
//! Both charge fetch through the same LRU set-associative I-cache model
//! under the machine's instruction encoding, and both report through one
//! [`SimResult`].
//!
//! ## One engine plus the oracle
//!
//! Fast candidate evaluation is what makes instruction-set exploration
//! tractable, so every run of either target kind is served by one engine,
//! [`BlockEngine`] ([`SimEngine::Block`], the default), generic over the
//! program type: the program's issue model — bundles under a whole-machine
//! interlock, or 1–2-wide scalar issue groups — supplies the only timing
//! rules that differ, and everything else (decoding, translation, the
//! trace tier, dispatch, the one op executor) is shared. [`Simulator::new`]
//! builds it for a [`asip_isa::VliwProgram`] and, as
//! [`ScalarSimulator`], for a [`asip_isa::ScalarProgram`]:
//!
//! * **Decode once.** The program + machine description become dense
//!   tables — operands as flat register indices, latencies, activity
//!   classes and fetch geometry baked from the machine tables, branch
//!   targets resolved, the scalar dual-issue pairing rule precomputed per
//!   adjacent pair.
//! * **Superops.** Basic blocks (discovered by `asip_dbt::blocks`) are
//!   translated on first visit into superops whose static costs (issue
//!   cycles, interlock stalls against a block-entry scoreboard, fetch
//!   bytes, activity deltas, touched I-cache lines) are folded at
//!   translate time by replaying the issue model's timing rule. Entry
//!   guards (block-start pc, admissible in-flight writes, resident I-cache
//!   lines, headroom under the cycle limit) decide per dispatch whether
//!   the superop applies; when any guard fails, execution runs the same
//!   timing rule exactly, cycle by cycle, for one pc and re-attempts fast
//!   dispatch at the next block boundary.
//! * **Superblock traces.** The dispatcher counts dispatches of in-loop
//!   block leaders and records each block's dominant successor with a
//!   Boyer–Moore majority sketch. When a leader crosses the promotion
//!   threshold ([`SimOptions::sb_threshold`]), the confident successor
//!   edges are chained into a **superblock**: one composed superop
//!   covering the whole hot path, its aggregates pre-summed across the
//!   internal control transfers, its I-cache line set unioned, its
//!   scoreboard effects replayed chain-globally. Side exits (the
//!   prediction missing mid-trace) resume in the block dispatcher with
//!   exact partial aggregates; entry-guard failures fall back to plain
//!   block dispatch.
//!
//! Each run starts from a fresh, zero-initialized data-memory image whose
//! pages cost nothing until the run touches them. The original
//! interpretive loops are preserved in [`mod@reference`]
//! ([`SimEngine::Reference`]) as the differential-testing oracle: the
//! workspace test suite pins bit-identical [`SimResult`]s between the two
//! on every preset × kernel and under fuzzed machine configurations,
//! fallback, side-exit and cycle-limit paths included, with traces forming
//! and with the threshold out of reach.
//!
//! ## Example
//!
//! ```
//! use asip_backend::{compile_module, BackendOptions};
//! use asip_isa::MachineDescription;
//! use asip_sim::run_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = asip_tinyc::compile("void main(int n) { emit(n * n); }")?;
//! let machine = MachineDescription::ember4();
//! let compiled = compile_module(&module, &machine, None, &BackendOptions::default())?;
//! let result = run_program(&machine, &compiled.program, &[9])?;
//! assert_eq!(result.output, vec![81]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod block;
mod exec;
pub mod icache;
pub mod reference;
pub mod run;
pub mod scalar;

pub use block::{BlockEngine, BlockStats};
pub use icache::ICache;
pub use run::{run_program, SimEngine, SimError, SimOptions, SimResult, Simulator};
pub use scalar::{run_scalar_program, ScalarSimulator};
