//! # asip-dbt — binary translation across a drifting ISA family
//!
//! Barrier 1 of the paper is the existing-binaries problem; its §2.2 answer
//! is run-time translation that makes family members that are "what we would
//! today call mutually incompatible" behave compatibly. This crate
//! implements that substrate for the VLIW family: a **rebundling
//! translator** that reads the bundles of a program compiled for member A
//! and emits a correct program for member B (different width, slot mix,
//! latencies, encoding), plus a **code cache** that amortizes
//! translation cost across runs — enough to measure the drift experiment's
//! overheads honestly.

#![warn(missing_docs)]

pub mod blocks;
pub mod translate;

pub use blocks::{discover, BasicBlock, BlockMap, Ctrl};
pub use translate::{
    translate_program, CodeCache, DbtError, TranslationStats, TRANSLATION_CYCLES_PER_OP,
};
