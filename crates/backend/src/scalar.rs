//! The scalar code-generation path: linear latency-aware list scheduling
//! into a [`ScalarProgram`].
//!
//! Scalar targets reuse the whole retargetable middle of the backend —
//! lowering ([`crate::lir`]), superblock formation ([`crate::trace`]),
//! list scheduling ([`crate::sched`]) and register allocation
//! ([`crate::regalloc`]) — by compiling against a **width-1 view** of the
//! machine: one issue slot hosting the union of the machine's unit kinds,
//! one cluster (so the cluster pass degenerates to a no-op). The list
//! scheduler then produces a dependence- and latency-aware *linear order*
//! (loads hoisted away from their uses, long chains interleaved), which
//! flattens 1:1 into the scalar instruction stream. Dynamic dual issue is
//! the simulator's job (the `asip_sim` scalar pipeline model); the binary
//! never encodes the width — the paper's §2.2 binary-compatibility
//! property.

use crate::{schedule_module, BackendError, BackendOptions, BackendStats};
use asip_ir::{Module, Profile};
use asip_isa::machine::Slot;
use asip_isa::{FuKind, MachineDescription, ScalarProgram};

/// A compiled scalar program plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScalarProgram {
    /// The linked linear executable.
    pub program: ScalarProgram,
    /// Compile-time statistics ([`BackendStats::bundles`] counts
    /// instructions; occupancy is the non-NOP fraction).
    pub stats: BackendStats,
}

/// The width-1 scheduling view of a machine: same name, registers,
/// latencies and custom ops, but a single slot hosting every unit kind the
/// machine has, on a single cluster.
pub(crate) fn width1_view(machine: &MachineDescription) -> MachineDescription {
    let kinds: Vec<FuKind> = FuKind::ALL
        .into_iter()
        .filter(|&k| machine.has_fu(k))
        .collect();
    let mut view = machine.clone();
    view.clusters = 1;
    view.slots = vec![Slot::new(&kinds)];
    view
}

/// Compile an IR module for a scalar machine.
///
/// The counterpart of [`crate::compile_module`] for
/// [`asip_isa::TargetKind::Scalar`] targets: same options, same
/// profile-guided trace selection, but the output is a linear
/// [`ScalarProgram`].
///
/// # Errors
///
/// Any [`BackendError`] (missing entry/units, unschedulable ops, register
/// files too small to allocate).
pub fn compile_module_scalar(
    module: &Module,
    machine: &MachineDescription,
    profile: Option<&Profile>,
    opts: &BackendOptions,
) -> Result<CompiledScalarProgram, BackendError> {
    let view = width1_view(machine);
    let (lm, scheduled, traces_formed) = schedule_module(module, &view, profile, opts)?;
    let program = {
        let _span = asip_obs::span("backend", "emit");
        let wide = crate::emit::emit_program(module, &lm, &scheduled, &view);
        asip_isa::scalar::from_width1(&wide, machine)
    };
    let insts = program.len();
    let ops = program.total_ops();
    let stats = BackendStats {
        bundles: insts,
        ops,
        occupancy: if insts == 0 {
            0.0
        } else {
            ops as f64 / insts as f64
        },
        spill_slots: lm.funcs.iter().map(|f| f.spill_slots).sum(),
        traces_formed,
    };
    Ok(CompiledScalarProgram { program, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_isa::{Opcode, TargetKind};

    fn compile(src: &str, m: &MachineDescription) -> CompiledScalarProgram {
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        compile_module_scalar(&module, m, None, &BackendOptions::default()).unwrap()
    }

    #[test]
    fn scalar_compile_produces_valid_linear_code() {
        let m = MachineDescription::scalar1();
        let out = compile("void main(int a, int b) { emit(a * b + a - b); }", &m);
        assert!(out.stats.bundles > 0);
        assert!(out.stats.occupancy > 0.0);
        out.program.validate(&m).expect("scalar program validates");
        assert_eq!(out.program.machine, "scalar1");
        // Linear code: exactly one op per program point, never a bundle.
        assert_eq!(out.program.len(), out.stats.bundles);
    }

    #[test]
    fn scalar_binary_is_width_independent() {
        // The same source compiles to the same stream for scalar1 and
        // scalar2 (binary compatibility): only the *name* differs.
        let src =
            "void main(int n) { int i; int s = 0; for (i = 0; i < n; i++) s += i * i; emit(s); }";
        let p1 = compile(src, &MachineDescription::scalar1());
        let p2 = compile(src, &MachineDescription::scalar2());
        assert_eq!(p1.program.insts, p2.program.insts);
        assert_eq!(p1.program.functions, p2.program.functions);
        assert_ne!(p1.program.machine, p2.program.machine);
    }

    #[test]
    fn width1_view_merges_slots() {
        let m = MachineDescription::scalar2();
        let v = width1_view(&m);
        assert_eq!(v.issue_width(), 1);
        for k in FuKind::ALL {
            assert_eq!(v.has_fu(k), m.has_fu(k), "{k}");
        }
        assert_eq!(v.target, TargetKind::Scalar);
        assert_eq!(v.name, m.name);
    }

    #[test]
    fn scheduler_hoists_loads_above_uses() {
        // With lat_mem 3, a good linear order separates a load from its
        // consumer; at minimum the program must still validate and keep all
        // its control structure intact.
        let m = MachineDescription::scalar1().derive("scalar1-slowmem", |m| m.lat_mem = 3);
        let out = compile(
            "int t[8]; void main(int n) { int i; for (i = 0; i < 8; i++) t[i] = i * n; emit(t[3] + t[4]); }",
            &m,
        );
        out.program.validate(&m).unwrap();
        assert!(out.program.insts.iter().any(|op| op.opcode == Opcode::Ldw));
    }
}
