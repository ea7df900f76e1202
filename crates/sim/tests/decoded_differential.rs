//! Differential testing of the block-compiled engines ([`asip_sim::block`])
//! against the preserved interpretive loops ([`asip_sim::reference`]).
//!
//! The block engine must be **observationally identical**: every field of
//! [`SimResult`] — outputs, final memory, total cycles, interlock /
//! I-cache / branch stall counters, bundles and ops executed, and all
//! dynamic activity counters — must match the reference loops exactly, on
//! every preset of both target kinds × every workload kernel, and on
//! fuzzed machine configurations drawn from the customization space.
//! Every check runs at each of [`THRESHOLDS`], so trace dispatch and plain
//! block dispatch both stay pinned. The guard-failure fallbacks (cold
//! I-cache lines, in-flight writes, looming cycle limits, mid-block
//! entries) and the trace tier's side exits are pinned separately at the
//! bottom of this file.

use asip_backend::{compile_module, compile_module_scalar, BackendOptions};
use asip_ir::interp::{Interp, InterpOptions, Profile};
use asip_ir::passes::{optimize, OptConfig};
use asip_ir::Module;
use asip_isa::{FuKind, ICacheConfig, MachineDescription, TargetKind, VliwProgram};
use asip_sim::{
    reference, BlockEngine, BlockStats, ScalarSimulator, SimEngine, SimError, SimOptions,
    SimResult, Simulator,
};
use asip_workloads::Workload;
use proptest::prelude::*;

/// The superblock promotion thresholds every check runs the block engine
/// at: 4 makes the trace tier form and dispatch traces on the short
/// differential kernels; `u32::MAX` keeps any loop from ever promoting,
/// which leaves plain block dispatch.
const THRESHOLDS: [u32; 2] = [4, u32::MAX];

/// The oracle's options (it has no promotion threshold to vary).
fn reference_opts() -> SimOptions {
    SimOptions {
        engine: SimEngine::Reference,
        ..SimOptions::default()
    }
}

fn frontend(w: &Workload) -> Module {
    let mut module = asip_tinyc::compile(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    optimize(&mut module, &OptConfig::default());
    module
}

/// Interpreter profile, as the profile-guided production pipeline compiles.
fn profile(module: &Module, w: &Workload) -> Profile {
    let mut interp = Interp::new(module, InterpOptions::default());
    for (name, data) in &w.inputs {
        interp.write_global(name, data);
    }
    interp
        .run("main", &w.args)
        .unwrap_or_else(|e| panic!("profile {}: {e}", w.name))
        .profile
}

/// Options selecting `engine` at promotion threshold `sb_threshold`.
fn opts(engine: SimEngine, sb_threshold: u32) -> SimOptions {
    SimOptions {
        engine,
        sb_threshold,
        ..SimOptions::default()
    }
}

/// A simulation of one compiled program under the given options and
/// entry arguments.
type Run<'a> = Box<dyn Fn(SimOptions, &[i32]) -> Result<SimResult, SimError> + 'a>;

/// `module` compiled for `machine` (dispatching on its target kind, with
/// an optional profile), as a [`Run`] that writes `inputs` into every
/// fresh simulator.
fn runner<'a>(
    machine: &'a MachineDescription,
    module: &Module,
    prof: Option<&Profile>,
    inputs: &'a [(String, Vec<i32>)],
) -> Run<'a> {
    match machine.target {
        TargetKind::Vliw => {
            let program = compile_module(module, machine, prof, &BackendOptions::default())
                .unwrap_or_else(|e| panic!("compile for {}: {e}", machine.name))
                .program;
            Box::new(move |o, args| {
                let mut sim = Simulator::new(machine, &program, o)?;
                for (name, data) in inputs {
                    sim.write_global(name, data);
                }
                sim.run(args)
            })
        }
        TargetKind::Scalar => {
            let program = compile_module_scalar(module, machine, prof, &BackendOptions::default())
                .unwrap_or_else(|e| panic!("compile for {}: {e}", machine.name))
                .program;
            Box::new(move |o, args| {
                let mut sim = ScalarSimulator::new(machine, &program, o)?;
                for (name, data) in inputs {
                    sim.write_global(name, data);
                }
                sim.run(args)
            })
        }
    }
}

/// The reference run of one workload on `machine` (dispatching on its
/// target kind), then one block-engine run per threshold, each labelled.
fn all_runs(machine: &MachineDescription, w: &Workload) -> (SimResult, Vec<(String, SimResult)>) {
    let module = frontend(w);
    let prof = profile(&module, w);
    let run = runner(machine, &module, Some(&prof), &w.inputs);
    let ok = |o: SimOptions| {
        run(o, &w.args)
            .unwrap_or_else(|e| panic!("{} {} on {}: {e}", o.engine, w.name, machine.name))
    };
    let r = ok(reference_opts());
    let blocks = THRESHOLDS
        .iter()
        .map(|&t| (format!("block@{t}"), ok(opts(SimEngine::Block, t))))
        .collect();
    (r, blocks)
}

/// Field-by-field identity of one engine against the reference, with
/// per-field messages so a divergence names the counter that moved rather
/// than dumping two whole results.
fn assert_fields(d: &SimResult, r: &SimResult, ctx: &str) {
    assert_eq!(d.output, r.output, "{ctx}: output");
    assert_eq!(d.cycles, r.cycles, "{ctx}: cycles");
    assert_eq!(
        d.interlock_stalls, r.interlock_stalls,
        "{ctx}: interlock_stalls"
    );
    assert_eq!(d.icache_stalls, r.icache_stalls, "{ctx}: icache_stalls");
    assert_eq!(d.branch_stalls, r.branch_stalls, "{ctx}: branch_stalls");
    assert_eq!(
        d.bundles_executed, r.bundles_executed,
        "{ctx}: bundles_executed"
    );
    assert_eq!(d.ops_executed, r.ops_executed, "{ctx}: ops_executed");
    assert_eq!(d.icache_misses, r.icache_misses, "{ctx}: icache_misses");
    assert_eq!(d.activity, r.activity, "{ctx}: activity counters");
    assert_eq!(d.memory, r.memory, "{ctx}: final memory");
    // Belt and braces: the whole struct (future fields included).
    assert_eq!(d, r, "{ctx}: SimResult");
}

/// Block ≡ reference at every threshold, field by field.
fn assert_identical(machine: &MachineDescription, w: &Workload) {
    let (r, blocks) = all_runs(machine, w);
    for (label, b) in &blocks {
        assert_fields(b, &r, &format!("{label}, {} on {}", w.name, machine.name));
    }
}

/// Every preset of both target kinds × every workload kernel: the block
/// engine reproduces the reference engine bit-for-bit.
#[test]
fn all_presets_all_kernels_identical() {
    for machine in MachineDescription::all_presets() {
        for w in asip_workloads::all() {
            assert_identical(&machine, &w);
        }
    }
}

/// Regression pin for the precomputed I-cache line table: per-fetch
/// miss/stall accounting is unchanged on every preset (including the
/// `Compact16` + small-cache shapes where line straddling matters).
#[test]
fn icache_accounting_unchanged_on_all_presets() {
    let ws = ["fir", "crc32", "sort"];
    for base in MachineDescription::all_presets() {
        let tiny = base.derive(&format!("{}-tinyic", base.name), |m| {
            m.icache = Some(ICacheConfig {
                size_bytes: 256,
                line_bytes: 16,
                ways: 1,
                miss_penalty: 11,
            });
            m.encoding = asip_isa::Encoding::Compact16;
        });
        for name in ws {
            let w = asip_workloads::by_name(name).unwrap();
            for machine in [&base, &tiny] {
                let (r, blocks) = all_runs(machine, &w);
                for (label, b) in &blocks {
                    assert_eq!(
                        (b.icache_misses, b.icache_stalls),
                        (r.icache_misses, r.icache_stalls),
                        "{label}, {} on {}: icache accounting diverged",
                        w.name,
                        machine.name
                    );
                }
            }
        }
    }
}

/// Errors must shape-match too: on both target kinds the block engine
/// reports the same divide-by-zero / bad-args errors the reference
/// engine does.
#[test]
fn error_paths_match_reference() {
    let mut module = asip_tinyc::compile("void main(int x) { emit(100 / x); }").unwrap();
    optimize(&mut module, &OptConfig::default());
    for m in &pinned_machines() {
        let run = runner(m, &module, None, &[]);
        for args in [&[0i32][..], &[]] {
            let reference = run(reference_opts(), args).unwrap_err();
            for t in THRESHOLDS {
                let err = run(opts(SimEngine::Block, t), args).unwrap_err();
                assert_eq!(
                    err, reference,
                    "block@{t} error for args {args:?} on {}",
                    m.name
                );
            }
        }
    }
}

/// A randomized VLIW member: issue-slot count, latencies, branch penalty,
/// encoding and I-cache geometry drawn from the customization space.
#[allow(clippy::too_many_arguments)]
fn fuzzed_vliw(
    extra_slots: usize,
    lat_mul: u32,
    lat_mem: u32,
    lat_div: u32,
    branch_penalty: u32,
    encoding: u8,
    with_icache: bool,
    regs: u16,
) -> MachineDescription {
    let mut b = MachineDescription::builder("fuzzed-vliw");
    b.registers(regs)
        .lat_mul(lat_mul)
        .lat_mem(lat_mem)
        .lat_div(lat_div)
        .branch_penalty(branch_penalty)
        .encoding(match encoding % 3 {
            0 => asip_isa::Encoding::Uncompressed,
            1 => asip_isa::Encoding::StopBit,
            _ => asip_isa::Encoding::Compact16,
        });
    b.slot(&[
        FuKind::Alu,
        FuKind::Mul,
        FuKind::Mem,
        FuKind::Branch,
        FuKind::Custom,
    ]);
    for i in 0..extra_slots {
        if i % 2 == 0 {
            b.slot(&[FuKind::Alu, FuKind::Mul]);
        } else {
            b.slot(&[FuKind::Alu, FuKind::Mem]);
        }
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
    b.build().expect("fuzzed VLIW machine is valid")
}

/// The scalar fuzz space of `scalar_differential.rs`, reused here to pit
/// the engines against each other.
#[allow(clippy::too_many_arguments)]
fn fuzzed_scalar(
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
    /// Property: on a random kernel and a random VLIW machine, the block
    /// and reference engines produce identical `SimResult`s.
    #[test]
    fn random_vliw_machines_identical(
        kernel in 0..asip_workloads::all().len(),
        extra_slots in 0usize..4,
        lat_mul in 1u32..5,
        lat_mem in 1u32..5,
        lat_div in 2u32..14,
        branch_penalty in 0u32..4,
        encoding in 0u8..3,
        with_icache in any::<bool>(),
        regs in 12u16..48,
    ) {
        let w = &asip_workloads::all()[kernel];
        let m = fuzzed_vliw(
            extra_slots,
            lat_mul,
            lat_mem,
            lat_div,
            branch_penalty,
            encoding,
            with_icache,
            regs,
        );
        assert_identical(&m, w);
    }

    /// Property: on a random kernel and a random scalar machine, the block
    /// and reference engines produce identical `SimResult`s.
    #[test]
    fn random_scalar_machines_identical(
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
        let m = fuzzed_scalar(
            dual_issue,
            lat_mul,
            lat_mem,
            lat_div,
            branch_penalty,
            forwarding,
            with_icache,
            regs,
        );
        assert_identical(&m, w);
    }
}

/// The machines the engine-tier pins run on: the VLIW preset the pins
/// were written for, and both scalar presets.
fn pinned_machines() -> [MachineDescription; 3] {
    [
        MachineDescription::ember4(),
        MachineDescription::scalar1(),
        MachineDescription::scalar2(),
    ]
}

/// `base` with a small direct-mapped I-cache of `size_bytes`, 16-byte
/// lines and a 9-cycle miss penalty.
fn tiny_icache(base: &MachineDescription, size_bytes: u32) -> MachineDescription {
    base.derive(&format!("{}-tinyic", base.name), |m| {
        m.icache = Some(ICacheConfig {
            size_bytes,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 9,
        });
    })
}

/// `w` compiled without a profile for `m` (either target kind), run once
/// on a fresh block engine under `o` and once on the reference loop:
/// (block result, the block engine's tier counters, reference result).
fn block_and_reference(
    m: &MachineDescription,
    w: &Workload,
    o: SimOptions,
) -> (SimResult, BlockStats, SimResult) {
    let module = frontend(w);
    let fail = |e: SimError| panic!("{} on {}: {e}", w.name, m.name);
    match m.target {
        TargetKind::Vliw => {
            let p = compile_module(&module, m, None, &BackendOptions::default())
                .unwrap()
                .program;
            let engine = BlockEngine::new(m, &p).unwrap();
            let got = engine
                .run_with_inputs(&w.inputs, &w.args, o)
                .unwrap_or_else(fail);
            let r =
                reference::run_vliw_reference(m, &p, &w.inputs, &w.args, o).unwrap_or_else(fail);
            (got, engine.stats(), r)
        }
        TargetKind::Scalar => {
            let p = compile_module_scalar(&module, m, None, &BackendOptions::default())
                .unwrap()
                .program;
            let engine = BlockEngine::new(m, &p).unwrap();
            let got = engine
                .run_with_inputs(&w.inputs, &w.args, o)
                .unwrap_or_else(fail);
            let r =
                reference::run_scalar_reference(m, &p, &w.inputs, &w.args, o).unwrap_or_else(fail);
            (got, engine.stats(), r)
        }
    }
}

/// The block engine's guard-failure fallback must actually be exercised
/// and stay exact, on both target kinds: on an I-cached machine, every
/// *first* visit to a block finds cold lines, fails the residency probe
/// and takes the slow path (one pc at a time), while hot revisits run as
/// superops — and the result is still bit-identical to the reference.
#[test]
fn block_fallback_slow_path_exercised() {
    let w = asip_workloads::by_name("fir").unwrap();
    for base in [MachineDescription::ember4(), MachineDescription::scalar1()] {
        let m = tiny_icache(&base, 512);
        for t in THRESHOLDS {
            let (got, stats, r) = block_and_reference(&m, &w, opts(SimEngine::Block, t));
            assert!(
                stats.slow_pcs > 0,
                "block@{t} on {}: cold I-cache lines must exercise the slow path",
                m.name
            );
            assert!(
                stats.fast_blocks > 0,
                "block@{t} on {}: hot blocks must still dispatch as superops",
                m.name
            );
            assert_fields(&got, &r, &format!("block@{t} fallback, fir on {}", m.name));
        }
    }
}

/// The trace tier is always armed: at the default promotion threshold a
/// hot loop forms traces and dispatches them, bit-identical to the
/// reference, on both target kinds.
#[test]
fn default_options_form_traces_on_a_hot_loop() {
    let w = asip_workloads::by_name("sort").unwrap();
    for m in &pinned_machines() {
        let (got, stats, r) = block_and_reference(m, &w, SimOptions::default());
        assert!(
            stats.traces_formed > 0,
            "{}: default options must form traces",
            m.name
        );
        assert!(
            stats.trace_entries > 0,
            "{}: formed traces must be dispatched",
            m.name
        );
        assert_fields(&got, &r, &format!("default options, sort on {}", m.name));
    }
}

/// The superblock tier must actually fire on a hot loop at a low
/// threshold, on both target kinds: traces are formed, dispatched
/// repeatedly, and side exits (the dominant successor prediction missing
/// on a data-dependent branch) are exercised; with the threshold out of
/// reach no trace forms. Either way the result is bit-identical to the
/// reference loop.
#[test]
fn superblock_traces_and_side_exits_exercised() {
    let w = asip_workloads::by_name("sort").unwrap();
    for m in [MachineDescription::ember4(), MachineDescription::scalar1()] {
        for t in THRESHOLDS {
            let (got, stats, r) = block_and_reference(&m, &w, opts(SimEngine::Block, t));
            let tier = (
                stats.traces_formed > 0,
                stats.trace_entries > 0,
                stats.trace_side_exits > 0,
            );
            let fires = t != u32::MAX;
            assert_eq!(
                tier,
                (fires, fires, fires),
                "block@{t} on {}: (formed, entered, side-exited)",
                m.name
            );
            assert_fields(&got, &r, &format!("block@{t}, sort on {}", m.name));
        }
    }
}

/// With a tiny I-cache the trace-entry residency probe must sometimes
/// fail (evicted lines inside the chained path), falling back to the
/// plain block dispatcher — exactly, with the fallback counter moving
/// only when traces can form — on both target kinds.
#[test]
fn superblock_guard_failure_fallback_exercised() {
    let w = asip_workloads::by_name("sort").unwrap();
    for base in &pinned_machines() {
        let mut m = tiny_icache(base, 256);
        m.encoding = asip_isa::Encoding::Uncompressed;
        for t in THRESHOLDS {
            let (got, stats, r) = block_and_reference(&m, &w, opts(SimEngine::Block, t));
            assert_eq!(
                stats.trace_fallbacks > 0,
                t != u32::MAX,
                "block@{t} on {}: cold chained lines must fall back to the block dispatcher",
                m.name
            );
            assert_fields(&got, &r, &format!("block@{t}, sort on {}", m.name));
        }
    }
}

/// Near the cycle limit the block engine's conservative `last_issue`
/// entry guards must hand over to the slow path, and both engines must
/// agree on exactly where `CycleLimit` trips, on both target kinds.
#[test]
fn block_cycle_limit_matches_reference() {
    let w = asip_workloads::by_name("fir").unwrap();
    let module = frontend(&w);
    for m in &pinned_machines() {
        let run = runner(m, &module, None, &w.inputs);
        let full = run(reference_opts(), &w.args).expect("fir completes under the default limit");
        for max_cycles in [
            full.cycles / 2,
            full.cycles - 1,
            full.cycles,
            full.cycles + 1,
        ] {
            let limit = |o: SimOptions| SimOptions { max_cycles, ..o };
            let r = run(limit(reference_opts()), &w.args);
            for t in THRESHOLDS {
                let b = run(limit(opts(SimEngine::Block, t)), &w.args);
                assert_eq!(
                    b, r,
                    "block@{t} vs reference on {} at max_cycles={max_cycles}",
                    m.name
                );
            }
        }
    }
}

/// The memory image at its edges, on both target kinds: a word between
/// the globals and the stack reads 0 before the run writes it and reads
/// back after, the first word past `dmem_words` faults, and the result
/// holds exactly the `data_words` static prefix — identically on the
/// block engine and the reference.
#[test]
fn memory_image_edges_match_reference() {
    let src = r#"
        int g[4] = {1, 2, 3, 4};
        void main(int k, int v, int k2) {
            emit(g[k]);
            g[k] = v;
            g[1] = v + 1;
            emit(g[k2]);
        }
    "#;
    let mut module = asip_tinyc::compile(src).unwrap();
    optimize(&mut module, &OptConfig::default());
    for m in &[MachineDescription::ember4(), MachineDescription::scalar1()] {
        let run: Run = match m.target {
            TargetKind::Vliw => {
                let p = compile_module(&module, m, None, &BackendOptions::default())
                    .unwrap()
                    .program;
                assert_eq!(p.data_words, 4);
                Box::new(move |o, args| Simulator::new(m, &p, o)?.run(args))
            }
            TargetKind::Scalar => {
                let p = compile_module_scalar(&module, m, None, &BackendOptions::default())
                    .unwrap()
                    .program;
                assert_eq!(p.data_words, 4);
                Box::new(move |o, args| ScalarSimulator::new(m, &p, o)?.run(args))
            }
        };
        let mid = (m.dmem_words / 2) as i32;
        let r = run(reference_opts(), &[mid, -7, mid]).expect("in-bounds run completes");
        assert_eq!(
            r.output,
            vec![0, -7],
            "{}: unwritten word, then read-back",
            m.name
        );
        assert_eq!(
            r.memory,
            vec![1, -6, 3, 4],
            "{}: the data_words prefix",
            m.name
        );
        let end = m.dmem_words as i32;
        let fault = run(reference_opts(), &[end, 5, 0]).unwrap_err();
        assert!(
            matches!(fault, SimError::MemFault { addr, .. } if addr == i64::from(end)),
            "{}: {fault:?}",
            m.name
        );
        for t in THRESHOLDS {
            let o = opts(SimEngine::Block, t);
            assert_fields(
                &run(o, &[mid, -7, mid]).unwrap(),
                &r,
                &format!("block@{t} on {}", m.name),
            );
            assert_eq!(
                run(o, &[end, 5, 0]).unwrap_err(),
                fault,
                "block@{t} on {}",
                m.name
            );
        }
    }
}

/// Same-bundle ordering of SP, LR and memory, which no compiled kernel is
/// known to rely on: a hand-built VLIW program whose bundles write SP or LR,
/// or store a word, and read it back in a later slot must see the old
/// value until the bundle ends, on the block engine's fast and slow paths
/// exactly as on the reference.
#[test]
fn same_bundle_reads_of_sp_lr_and_memory_see_the_old_values() {
    use asip_isa::{Bundle, FuncSym, MachineOp, Opcode, Operand, Reg};
    let r = |index| Reg { cluster: 0, index };
    let op = |opcode, dsts: Vec<Reg>, srcs: Vec<Operand>, imm| MachineOp {
        imm,
        ..MachineOp::new(opcode, dsts, srcs)
    };
    let bundle = |ops: Vec<(usize, MachineOp)>| {
        let mut b = Bundle::empty(4);
        for (slot, o) in ops {
            b.slots[slot] = Some(o);
        }
        b
    };
    let emit = |index| {
        bundle(vec![(
            0,
            op(Opcode::Emit, vec![], vec![Operand::Reg(r(index))], 0),
        )])
    };
    let program = VliwProgram {
        machine: "ember4".into(),
        bundles: vec![
            bundle(vec![
                (1, op(Opcode::AddSp, vec![], vec![], -3)),
                (2, op(Opcode::MovFromSp, vec![r(5)], vec![], 0)),
            ]),
            bundle(vec![
                (1, op(Opcode::MovFromSp, vec![r(6)], vec![], 0)),
                (2, op(Opcode::MovToLr, vec![], vec![Operand::Imm(9)], 0)),
                (3, op(Opcode::MovFromLr, vec![r(7)], vec![], 0)),
            ]),
            bundle(vec![(1, op(Opcode::MovFromLr, vec![r(8)], vec![], 0))]),
            bundle(vec![
                (
                    0,
                    op(
                        Opcode::Stw,
                        vec![],
                        vec![Operand::Imm(42), Operand::Imm(0)],
                        0,
                    ),
                ),
                (3, op(Opcode::Ldw, vec![r(9)], vec![Operand::Imm(0)], 0)),
            ]),
            bundle(vec![(
                3,
                op(Opcode::Ldw, vec![r(10)], vec![Operand::Imm(0)], 0),
            )]),
            emit(5),
            emit(6),
            emit(7),
            emit(8),
            emit(9),
            emit(10),
            bundle(vec![(0, op(Opcode::Halt, vec![], vec![], 0))]),
        ],
        functions: vec![FuncSym {
            name: "main".into(),
            entry: 0,
            frame_words: 0,
            num_args: 0,
        }],
        ..VliwProgram::default()
    };
    for m in [
        MachineDescription::ember4(),
        MachineDescription::ember4().derive("ember4-noic", |m| m.icache = None),
    ] {
        let top = m.dmem_words as i32;
        let r = Simulator::new(&m, &program, reference_opts())
            .unwrap()
            .run(&[])
            .unwrap();
        assert_eq!(r.output, vec![top, top - 3, -1, 9, 0, 42], "{}", m.name);
        for t in THRESHOLDS {
            let b = Simulator::new(&m, &program, opts(SimEngine::Block, t))
                .unwrap()
                .run(&[])
                .unwrap();
            assert_fields(&b, &r, &format!("block@{t} on {}", m.name));
        }
    }
}
