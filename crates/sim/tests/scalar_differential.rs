//! Differential testing of the scalar pipeline model: for every workload
//! kernel and a fuzzed space of scalar machine configurations, the scalar
//! simulator must produce exactly the IR interpreter's observable results —
//! the emitted output stream *and* the final contents of every global.
//! Timing knobs (latencies, forwarding, issue width, branch penalty,
//! I-cache) may only move cycle counts, never values.

use asip_backend::{compile_module_scalar, BackendOptions, CompiledScalarProgram};
use asip_ir::interp::{Interp, InterpOptions, InterpResult};
use asip_ir::passes::{optimize, OptConfig};
use asip_ir::Module;
use asip_isa::{FuKind, ICacheConfig, MachineDescription, TargetKind};
use asip_sim::{ScalarSimulator, SimOptions, SimResult};
use asip_workloads::Workload;
use proptest::prelude::*;

fn frontend(w: &Workload) -> Module {
    let mut module = asip_tinyc::compile(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    optimize(&mut module, &OptConfig::default());
    module
}

fn interp_run(module: &Module, w: &Workload) -> InterpResult {
    let mut interp = Interp::new(module, InterpOptions::default());
    for (name, data) in &w.inputs {
        interp.write_global(name, data);
    }
    interp
        .run("main", &w.args)
        .unwrap_or_else(|e| panic!("interp {}: {e}", w.name))
}

fn scalar_run(
    machine: &MachineDescription,
    compiled: &CompiledScalarProgram,
    w: &Workload,
) -> SimResult {
    let mut sim = ScalarSimulator::new(machine, &compiled.program, SimOptions::default())
        .unwrap_or_else(|e| panic!("sim setup {} on {}: {e}", w.name, machine.name));
    for (name, data) in &w.inputs {
        sim.write_global(name, data);
    }
    sim.run(&w.args)
        .unwrap_or_else(|e| panic!("sim {} on {}: {e}", w.name, machine.name))
}

/// Simulator output and every written global must equal the interpreter's.
/// (Both layers lay globals out sequentially from address 0 in module
/// order, so addresses agree.)
fn check_observables(machine: &MachineDescription, w: &Workload) {
    let module = frontend(w);
    let golden = interp_run(&module, w);
    let compiled = compile_module_scalar(&module, machine, None, &BackendOptions::default())
        .unwrap_or_else(|e| panic!("compile {} on {}: {e}", w.name, machine.name));
    compiled
        .program
        .validate(machine)
        .unwrap_or_else(|e| panic!("validate {} on {}: {e}", w.name, machine.name));
    let sim = scalar_run(machine, &compiled, w);
    assert_eq!(
        sim.output, golden.output,
        "{} on {}: output stream diverged",
        w.name, machine.name
    );
    assert_eq!(
        sim.output, w.expected,
        "{} on {}: golden model diverged",
        w.name, machine.name
    );
    for g in &compiled.program.globals {
        let base = g.addr as usize;
        let words = g.words as usize;
        assert_eq!(
            &sim.memory[base..base + words],
            &golden.memory[base..base + words],
            "{} on {}: global {} diverged",
            w.name,
            machine.name,
            g.name
        );
    }
}

/// Every workload kernel, on both scalar presets: identical observables.
#[test]
fn all_kernels_match_interpreter_on_scalar_presets() {
    for machine in MachineDescription::scalar_presets() {
        for w in asip_workloads::all() {
            check_observables(&machine, &w);
        }
    }
}

/// A randomized scalar machine: issue width, latencies, forwarding, branch
/// penalty and I-cache geometry drawn from the customization space.
#[allow(clippy::too_many_arguments)]
fn fuzzed_machine(
    dual_issue: bool,
    lat_mul: u32,
    lat_mem: u32,
    lat_div: u32,
    branch_penalty: u32,
    forwarding: bool,
    with_icache: bool,
    regs: u16,
) -> MachineDescription {
    let mut b = MachineDescription::builder("fuzzed-scalar");
    b.target(TargetKind::Scalar)
        .registers(regs)
        .lat_mul(lat_mul)
        .lat_mem(lat_mem)
        .lat_div(lat_div)
        .branch_penalty(branch_penalty)
        .forwarding(forwarding);
    if dual_issue {
        b.slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch]).slot(&[
            FuKind::Alu,
            FuKind::Mul,
            FuKind::Custom,
        ]);
    } else {
        b.slot(&[
            FuKind::Alu,
            FuKind::Mul,
            FuKind::Mem,
            FuKind::Branch,
            FuKind::Custom,
        ]);
    }
    if !with_icache {
        b.icache(None);
    } else {
        b.icache(Some(ICacheConfig {
            size_bytes: 512,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 9,
        }));
    }
    b.build().expect("fuzzed scalar machine is valid")
}

proptest! {
    /// Property: on a random kernel and a random scalar machine, the
    /// pipeline simulator and the interpreter agree on output and globals.
    #[test]
    fn random_scalar_machines_preserve_observables(
        kernel in 0..asip_workloads::all().len(),
        dual_issue in any::<bool>(),
        lat_mul in 1u32..5,
        lat_mem in 1u32..5,
        lat_div in 2u32..14,
        branch_penalty in 0u32..4,
        forwarding in any::<bool>(),
        with_icache in any::<bool>(),
        regs in 12u16..48,
    ) {
        let w = &asip_workloads::all()[kernel];
        let m = fuzzed_machine(
            dual_issue,
            lat_mul,
            lat_mem,
            lat_div,
            branch_penalty,
            forwarding,
            with_icache,
            regs,
        );
        check_observables(&m, w);
    }
}
