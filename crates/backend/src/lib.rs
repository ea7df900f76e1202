//! # asip-backend — the retargetable backend (VLIW and scalar targets)
//!
//! One backend, every family member: the compiler reads nothing about the
//! target except its [`MachineDescription`] table, fulfilling the paper's
//! §3.1 "mass customization" contract — *"change most of the normal
//! architectural parameters to produce a new model, and continue to generate
//! good code."* VLIW targets emit bundled [`asip_isa::VliwProgram`]s via
//! [`compile_module`]; scalar targets share the whole middle of the
//! pipeline and emit linear [`asip_isa::ScalarProgram`]s via
//! [`compile_module_scalar`] (see [`scalar`]).
//!
//! Pipeline per function:
//!
//! 1. **Lowering** to LIR: machine opcodes, calling convention, prologue and
//!    epilogue, symbolic frame offsets ([`lir`]);
//! 2. **Superblock formation**: trace selection (profile-guided when a
//!    profile is supplied) with tail duplication ([`trace`]);
//! 3. **Cluster assignment** with explicit inter-cluster copies
//!    ([`cluster`]);
//! 4. **List scheduling** on a dependence DAG with restricted speculation
//!    above side exits ([`sched`]);
//! 5. **Linear-scan register allocation** with spill-and-reschedule
//!    iteration ([`regalloc`]);
//! 6. **Emission** of a linked [`asip_isa::VliwProgram`] ([`emit`]).
//!
//! Steps 3–5 repeat per function until allocation succeeds. Each round
//! computes one liveness that the scheduler and the allocator share, and
//! keeps its per-register tables as vectors indexed by virtual register.
//!
//! ## Example
//!
//! ```
//! use asip_backend::{compile_module, BackendOptions};
//! use asip_isa::MachineDescription;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = asip_tinyc::compile("void main(int a, int b) { emit(a * b); }")?;
//! let machine = MachineDescription::ember4();
//! let out = compile_module(&module, &machine, None, &BackendOptions::default())?;
//! assert!(out.program.validate(&machine).is_ok());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod emit;
pub mod lir;
pub mod regalloc;
pub mod scalar;
pub mod sched;
pub mod trace;

pub use scalar::{compile_module_scalar, CompiledScalarProgram};

use asip_ir::{FuncId, Module, Profile};
use asip_isa::{MachineDescription, VliwProgram};
use regalloc::AllocOutcome;
use std::fmt;

/// Backend tuning knobs.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Form superblocks before scheduling (disable for a basic-block
    /// scheduler baseline).
    pub superblocks: bool,
    /// Trace-formation limits.
    pub trace: trace::TraceConfig,
    /// Maximum spill-and-reschedule rounds before giving up.
    pub max_spill_rounds: u32,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            superblocks: true,
            trace: trace::TraceConfig::default(),
            max_spill_rounds: 24,
        }
    }
}

/// Compilation statistics, one source of the experiment tables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendStats {
    /// Total bundles emitted.
    pub bundles: usize,
    /// Total operations emitted.
    pub ops: usize,
    /// Mean slot occupancy (ops / (bundles × width)).
    pub occupancy: f64,
    /// Spill slots allocated across all functions.
    pub spill_slots: u32,
    /// Superblock traces formed.
    pub traces_formed: usize,
}

/// A compiled program plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The linked executable.
    pub program: VliwProgram,
    /// Compile-time statistics.
    pub stats: BackendStats,
}

/// Any backend failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// IR → LIR lowering failed.
    Lower(lir::LowerToLirError),
    /// Scheduling failed.
    Schedule(sched::ScheduleError),
    /// Register allocation failed.
    Alloc(regalloc::AllocError),
    /// Spilling did not converge within the round limit.
    SpillDivergence {
        /// Function that kept spilling.
        func: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Lower(e) => write!(f, "lowering: {e}"),
            BackendError::Schedule(e) => write!(f, "scheduling: {e}"),
            BackendError::Alloc(e) => write!(f, "register allocation: {e}"),
            BackendError::SpillDivergence { func } => {
                write!(f, "spilling did not converge in {func}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<lir::LowerToLirError> for BackendError {
    fn from(e: lir::LowerToLirError) -> Self {
        BackendError::Lower(e)
    }
}

impl From<sched::ScheduleError> for BackendError {
    fn from(e: sched::ScheduleError) -> Self {
        BackendError::Schedule(e)
    }
}

impl From<regalloc::AllocError> for BackendError {
    fn from(e: regalloc::AllocError) -> Self {
        BackendError::Alloc(e)
    }
}

/// Compile an IR module for one machine.
///
/// `profile` (from [`asip_ir::interp`]) guides trace selection when present.
/// The entry function is `main`.
///
/// # Errors
///
/// [`BackendError`] for missing entry/units, unschedulable ops, or register
/// files too small to allocate.
pub fn compile_module(
    module: &Module,
    machine: &MachineDescription,
    profile: Option<&Profile>,
    opts: &BackendOptions,
) -> Result<CompiledProgram, BackendError> {
    let (lm, scheduled, traces_formed) = schedule_module(module, machine, profile, opts)?;
    let program = {
        let _span = asip_obs::span("backend", "emit");
        emit::emit_program(module, &lm, &scheduled, machine)
    };
    let bundles = program.len();
    let ops = program.total_ops();
    let width = machine.issue_width().max(1);
    let stats = BackendStats {
        bundles,
        ops,
        occupancy: if bundles == 0 {
            0.0
        } else {
            ops as f64 / (bundles * width) as f64
        },
        spill_slots: lm.funcs.iter().map(|f| f.spill_slots).sum(),
        traces_formed,
    };
    Ok(CompiledProgram { program, stats })
}

/// The target-independent middle of the backend: lower to LIR, form traces,
/// then iterate schedule → allocate → spill to a fixpoint per function.
/// Returns the lowered module, one [`sched::ScheduledFunc`] plus its
/// [`regalloc::Assignment`] per function, and the trace count.
///
/// Both the VLIW emitter ([`compile_module`]) and the scalar emitter
/// ([`scalar::compile_module_scalar`], through its width-1 machine view)
/// run on top of this. Each phase records an `asip_obs` span under the
/// `backend` category.
///
/// # Errors
///
/// Any [`BackendError`].
pub(crate) fn schedule_module(
    module: &Module,
    machine: &MachineDescription,
    profile: Option<&Profile>,
    opts: &BackendOptions,
) -> Result<(lir::LModule, Vec<Allocated>, usize), BackendError> {
    let mut lm = {
        let _span = asip_obs::span("backend", "lower");
        lir::lower_module(module, machine, "main")?
    };
    let mut scheduled = Vec::with_capacity(lm.funcs.len());
    let mut traces_formed = 0;

    for fi in 0..lm.funcs.len() {
        let lf = &mut lm.funcs[fi];
        {
            let _span = asip_obs::span("backend", "superblocks");
            if opts.superblocks {
                let counts: Vec<u64> = match profile {
                    Some(p) => (0..lf.blocks.len())
                        .map(|b| p.count(FuncId(fi as u32), asip_ir::BlockId(b as u32)))
                        .collect(),
                    None => Vec::new(),
                };
                traces_formed += trace::form_superblocks(lf, &counts, &opts.trace);
            } else {
                trace::remove_unreachable(lf);
            }
        }

        // Schedule / allocate / spill loop. If the parallel schedule cannot
        // be register-allocated (tiny register files hoist too many spill
        // reloads), fall back to a sequential schedule where reloads sit
        // next to their uses — slower code, guaranteed allocatable.
        let mut spill_temps = Vec::new();
        let mut done = None;
        let mut sequential = false;
        let mut round = 0;
        while round < opts.max_spill_rounds {
            round += 1;
            match schedule_round(lf, machine, sequential, &spill_temps)? {
                (s, Ok(AllocOutcome::Assigned(regs))) => {
                    done = Some((s, regs));
                    break;
                }
                (_, Ok(AllocOutcome::Spill(vs))) => {
                    let _span = asip_obs::span("backend", "spill");
                    regalloc::rewrite_spills(lf, &vs, &mut spill_temps);
                }
                (_, Err(e)) => {
                    if sequential {
                        return Err(e.into());
                    }
                    sequential = true; // restart in degraded mode
                    round = 0;
                }
            }
        }
        if done.is_none() && !sequential {
            // One last chance in degraded mode.
            match schedule_round(lf, machine, true, &spill_temps)? {
                (s, Ok(AllocOutcome::Assigned(regs))) => done = Some((s, regs)),
                (_, Ok(AllocOutcome::Spill(_))) => {}
                (_, Err(e)) => return Err(e.into()),
            }
        }
        let Some(a) = done else {
            return Err(BackendError::SpillDivergence {
                func: lf.name.clone(),
            });
        };
        scheduled.push(a);
    }

    Ok((lm, scheduled, traces_formed))
}

/// A function's final schedule and its register assignment.
pub(crate) type Allocated = (sched::ScheduledFunc, regalloc::Assignment);

/// One round on the function's current LIR: cluster assignment, one shared
/// liveness, list (or `sequential`) scheduling, linear-scan allocation.
fn schedule_round(
    lf: &mut lir::LFunc,
    machine: &MachineDescription,
    sequential: bool,
    spill_temps: &[bool],
) -> Result<
    (
        sched::ScheduledFunc,
        Result<AllocOutcome, regalloc::AllocError>,
    ),
    sched::ScheduleError,
> {
    let homes = {
        let _span = asip_obs::span("backend", "cluster");
        cluster::assign_clusters(lf, machine)
    };
    let (live, s) = {
        let _span = asip_obs::span("backend", "schedule");
        let live = sched::lir_liveness(lf);
        let s = if sequential {
            sched::schedule_function_sequential(lf, machine, &homes)?
        } else {
            sched::schedule_function(lf, machine, &homes, &live)?
        };
        (live, s)
    };
    let _span = asip_obs::span("backend", "allocate");
    let outcome = regalloc::try_allocate(&s, lf, machine, &homes, &live, spill_temps);
    Ok((s, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile_produces_stats() {
        let m = asip_tinyc::compile("void main() { emit(1); }").unwrap();
        let machine = MachineDescription::ember2();
        let out = compile_module(&m, &machine, None, &BackendOptions::default()).unwrap();
        assert!(out.stats.bundles > 0);
        assert!(out.stats.occupancy > 0.0);
        assert!(out.program.validate(&machine).is_ok());
    }
}
