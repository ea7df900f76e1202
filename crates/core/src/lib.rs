//! # asip-core — automated ISA customization (the paper's contribution)
//!
//! This crate assembles the substrates (frontend, IR, backend, simulator,
//! models) into the system *"Customized Instruction-Sets for Embedded
//! Processors"* (Fisher, DAC 1999) describes:
//!
//! * a **builder-configured [`Session`]** ([`session`]): the single family
//!   view — one object that owns a **two-tier** [`ArtifactCache`]
//!   ([`cache`]: an LRU byte-budgeted memory tier plus an optional
//!   persistent disk tier for cross-process warm starts) and a worker pool, and evaluates
//!   any batch of (workload × machine) cells through
//!   [`Session::eval_batch`] with deterministic, request-ordered results;
//! * the **staged pipeline engine** ([`pipeline`]): the explicit
//!   Parse → Optimize → Profile → Compile → Simulate graph under every
//!   session, with profile-guided superblock formation and golden-model
//!   output checking;
//! * **instruction-set extension** ([`ise`]): automatic identification and
//!   budget-constrained selection of application-specific operations, with
//!   IR rewriting, machine-description extension, and batched measured
//!   budget sweeps ([`ise::sweep_budgets`]);
//! * **design-space exploration** ([`dse`]): the Custom-Fit loop — search
//!   the family's parameter space for the machine that best fits an
//!   application or application area; every candidate cell runs through
//!   [`Session::eval_batch`], so exploration parallelizes for free;
//! * the **N×M validation grid** ([`nxm`]): §3.1's testing discipline,
//!   "architectures as if they were test programs".
//!
//! ## Example: evaluate a family batch, then customize the winner
//!
//! ```no_run
//! use asip_core::dse::{explore, SearchSpace};
//! use asip_core::{EvalRequest, Session};
//! use asip_isa::MachineDescription;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = Session::builder()
//!     .threads(8)
//!     .cache_bytes(64 * 1024 * 1024)
//!     .build();
//!
//! // Batch-evaluate two family members on one workload…
//! let fir = asip_workloads::by_name("fir").unwrap();
//! let outcomes = session.eval_batch(&[
//!     EvalRequest::new(fir.clone(), MachineDescription::ember1()),
//!     EvalRequest::new(fir.clone(), MachineDescription::ember4()).with_ise(16.0),
//! ]);
//! for o in &outcomes {
//!     println!("{} on {}: {:?} cycles", o.workload, o.machine, o.cycles());
//! }
//!
//! // …or let the Custom-Fit loop search the whole space (same batch API
//! // underneath, same shared cache).
//! let ex = explore(&session, &SearchSpace::default(), &[fir]);
//! println!("best fit: {}", ex.best_fit().unwrap().machine.name);
//! println!("cache: {}", session.cache_stats());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
mod codec;
pub mod dse;
pub mod ise;
pub mod nxm;
pub mod pipeline;
pub mod session;

pub use cache::{
    ArtifactCache, CacheConfig, CacheStats, DiskTierConfig, StageKind, StageStats, TierStats,
};
pub use pipeline::{CompiledArtifact, Toolchain, ToolchainError, WorkloadRun};
pub use session::{EvalOutcome, EvalRequest, EvalRun, Session, SessionBuilder};
