//! The original interpretive cycle loops, preserved as the differential
//! oracle for the block engine in [`crate::block`].
//!
//! These are the pre-refactor simulators, byte-for-byte in behavior: they
//! re-resolve operands against [`Operand`]s, look latencies and encodings
//! up in the [`MachineDescription`] tables on every cycle, track in-flight
//! writes in a scanned vector and allocate per-bundle scratch — exactly
//! what the block engine optimizes away. The workspace differential suite
//! (`crates/sim/tests/decoded_differential.rs`) pins that the engine and
//! these loops produce identical [`SimResult`]s — every stall and activity
//! counter included — over all presets × all kernels and fuzzed machine
//! configurations; the microbenchmarks in `crates/bench` measure the
//! speedup against them.

use crate::exec::{initial_memory, static_data, write_inputs};
use crate::icache::ICache;
use crate::run::{SimError, SimOptions, SimResult};
use crate::scalar::group_fits;
use asip_isa::encoding::{bundle_bytes, layout};
use asip_isa::scalar::scalar_inst_bytes;
use asip_isa::{
    ActivityCounts, LatClass, MachineDescription, MachineOp, Opcode, Operand, Reg, ScalarProgram,
    VliwProgram,
};

/// Sentinel LR value meaning "return ends the program".
const LR_HALT: u32 = u32::MAX;

fn count_activity(act: &mut ActivityCounts, op: Opcode) {
    match op.lat_class() {
        LatClass::Alu => act.alu_ops += 1,
        LatClass::Mul => act.mul_ops += 1,
        LatClass::Div => act.div_ops += 1,
        LatClass::Mem => act.mem_ops += 1,
        LatClass::Branch => act.branch_ops += 1,
        LatClass::Copy => act.copy_ops += 1,
        LatClass::Custom => act.custom_ops += 1,
    }
}

/// Run `program` on the reference (pre-decoded-era) VLIW cycle loop:
/// validate, load globals, apply `inputs`, then execute with `args`.
///
/// # Errors
///
/// Any [`SimError`].
#[allow(clippy::too_many_lines)]
pub fn run_vliw_reference(
    machine: &MachineDescription,
    program: &VliwProgram,
    inputs: &[(String, Vec<i32>)],
    args: &[i32],
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    let mut span = asip_obs::span("engine", "run");
    span.note("reference");
    program
        .validate(machine)
        .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
    let entry = &program.functions[program.entry_func as usize];
    if args.len() != entry.num_args as usize {
        return Err(SimError::BadArgs {
            expected: entry.num_args,
            got: args.len() as u32,
        });
    }
    let layout = layout(program, machine);
    let mut memory = initial_memory(machine.dmem_words, &program.globals);
    write_inputs(&mut memory, &program.globals, inputs);

    // Stack setup: arguments at the very top; SP points at the first.
    let top = memory.len() as u32;
    let mut sp = top - args.len() as u32;
    for (i, &a) in args.iter().enumerate() {
        memory[sp as usize + i] = a;
    }
    let mut lr: u32 = LR_HALT;

    let nclusters = machine.clusters as usize;
    let regs_per = machine.regs_per_cluster as usize;
    let mut regs = vec![vec![0i32; regs_per]; nclusters];
    // In-flight writes: (reg, value, ready_cycle), kept small.
    let mut inflight: Vec<(Reg, i32, u64)> = Vec::new();

    let mut icache = machine.icache.map(ICache::new);
    let mut out = SimResult {
        output: Vec::new(),
        cycles: 0,
        interlock_stalls: 0,
        icache_stalls: 0,
        branch_stalls: 0,
        bundles_executed: 0,
        ops_executed: 0,
        activity: ActivityCounts::default(),
        icache_misses: 0,
        memory: Vec::new(),
    };

    let mut cycle: u64 = 0;
    let mut pc: u32 = entry.entry;

    'run: loop {
        if cycle > opts.max_cycles {
            return Err(SimError::CycleLimit);
        }
        let bundle = &program.bundles[pc as usize];

        // 1. Fetch.
        if let Some(ic) = icache.as_mut() {
            let addr = layout.bundle_addr[pc as usize];
            let len = bundle_bytes(bundle, machine, machine.encoding);
            let misses = ic.access(addr, len);
            if misses > 0 {
                let pen = u64::from(misses) * u64::from(ic.miss_penalty());
                cycle += pen;
                out.icache_stalls += pen;
                out.icache_misses += u64::from(misses);
            }
        }
        out.activity.fetch_bytes += u64::from(bundle_bytes(bundle, machine, machine.encoding));

        // 2. Interlock on in-flight writes to registers this bundle
        //    reads — and to registers it writes (in-order writeback).
        let mut ready_at = cycle;
        for (_, op) in bundle.ops() {
            for r in op.reads().chain(op.dsts.iter().copied()) {
                for &(ir, _, t) in inflight.iter() {
                    if ir == r && t > ready_at {
                        ready_at = t;
                    }
                }
            }
        }
        if ready_at > cycle {
            out.interlock_stalls += ready_at - cycle;
            cycle = ready_at;
        }
        // Commit arrived writes.
        inflight.retain(|&(r, v, t)| {
            if t <= cycle {
                if !r.is_zero() {
                    regs[r.cluster as usize][r.index as usize] = v;
                }
                false
            } else {
                true
            }
        });

        // 3+4. Read and execute.
        let read = |o: &Operand, regs: &Vec<Vec<i32>>| -> i32 {
            match o {
                Operand::Reg(r) => {
                    if r.is_zero() {
                        0
                    } else {
                        regs[r.cluster as usize][r.index as usize]
                    }
                }
                Operand::Imm(v) => *v,
            }
        };

        let mut stores: Vec<(i64, i32)> = Vec::new();
        let mut writes: Vec<(Reg, i32, u64)> = Vec::new();
        let mut next_pc = pc + 1;
        let mut taken = false;
        let mut halted = false;
        let mut sp_next = sp;
        let mut lr_next = lr;

        for (_, op) in bundle.ops() {
            out.ops_executed += 1;
            count_activity(&mut out.activity, op.opcode);
            let lat = u64::from(machine.latency(op.opcode));
            match op.opcode {
                Opcode::Ldw => {
                    let base = read(&op.srcs[0], &regs);
                    let addr = i64::from(base) + i64::from(op.imm);
                    if addr < 0 || addr as usize >= memory.len() {
                        return Err(SimError::MemFault { pc, addr });
                    }
                    let v = memory[addr as usize];
                    writes.push((op.dsts[0], v, cycle + lat));
                }
                Opcode::Stw => {
                    let v = read(&op.srcs[0], &regs);
                    let base = read(&op.srcs[1], &regs);
                    let addr = i64::from(base) + i64::from(op.imm);
                    if addr < 0 || addr as usize >= memory.len() {
                        return Err(SimError::MemFault { pc, addr });
                    }
                    stores.push((addr, v));
                }
                Opcode::Br => {
                    next_pc = op.target;
                    taken = true;
                }
                Opcode::BrT | Opcode::BrF => {
                    let c = read(&op.srcs[0], &regs) != 0;
                    let go = if op.opcode == Opcode::BrT { c } else { !c };
                    if go {
                        next_pc = op.target;
                        taken = true;
                    }
                }
                Opcode::Call => {
                    lr_next = pc + 1;
                    next_pc = program.functions[op.target as usize].entry;
                    taken = true;
                }
                Opcode::Ret => {
                    if lr == LR_HALT {
                        halted = true;
                    } else if lr as usize >= program.bundles.len() {
                        return Err(SimError::WildReturn { pc });
                    } else {
                        next_pc = lr;
                        taken = true;
                    }
                }
                Opcode::Halt => halted = true,
                Opcode::Emit => {
                    let v = read(&op.srcs[0], &regs);
                    out.output.push(v);
                }
                Opcode::AddSp => {
                    sp_next = (i64::from(sp) + i64::from(op.imm)) as u32;
                }
                Opcode::MovFromSp => {
                    writes.push((op.dsts[0], sp as i32, cycle + lat));
                }
                Opcode::MovFromLr => {
                    writes.push((op.dsts[0], lr as i32, cycle + lat));
                }
                Opcode::MovToLr => {
                    lr_next = read(&op.srcs[0], &regs) as u32;
                }
                Opcode::CopyX | Opcode::Mov => {
                    let v = read(&op.srcs[0], &regs);
                    writes.push((op.dsts[0], v, cycle + lat));
                }
                Opcode::Select => {
                    let c = read(&op.srcs[0], &regs);
                    let a = read(&op.srcs[1], &regs);
                    let b = read(&op.srcs[2], &regs);
                    writes.push((op.dsts[0], if c != 0 { a } else { b }, cycle + lat));
                }
                Opcode::Custom(k) => {
                    let def = &program.custom_ops[k as usize];
                    let argv: Vec<i32> = op.srcs.iter().map(|s| read(s, &regs)).collect();
                    let outs = def.eval(&argv).map_err(|e| match e {
                        asip_isa::CustomOpError::Eval(_) => SimError::DivideByZero { pc },
                        other => SimError::InvalidProgram(other.to_string()),
                    })?;
                    for (d, v) in op.dsts.iter().zip(outs) {
                        writes.push((*d, v, cycle + lat));
                    }
                    out.activity.custom_area_executed += def.area.round() as u64;
                }
                Opcode::Nop => {}
                // Unary arithmetic.
                Opcode::Abs | Opcode::Sxtb | Opcode::Sxth => {
                    let a = read(&op.srcs[0], &regs);
                    let v = op.opcode.eval1(a).expect("unary arith");
                    writes.push((op.dsts[0], v, cycle + lat));
                }
                // Binary arithmetic.
                _ => {
                    let a = read(&op.srcs[0], &regs);
                    let b = read(&op.srcs[1], &regs);
                    let v = op.opcode.eval2(a, b).map_err(|e| match e {
                        asip_isa::EvalError::DivideByZero => SimError::DivideByZero { pc },
                        asip_isa::EvalError::NotArithmetic => SimError::InvalidProgram(format!(
                            "opcode {} is not executable",
                            op.opcode
                        )),
                    })?;
                    writes.push((op.dsts[0], v, cycle + lat));
                }
            }
        }

        // End of bundle: apply stores, register writes, SP/LR, stats.
        for (addr, v) in stores {
            memory[addr as usize] = v;
        }
        for w in writes {
            if !w.0.is_zero() {
                inflight.push(w);
            }
        }
        sp = sp_next;
        lr = lr_next;
        out.bundles_executed += 1;
        out.activity.bundles += 1;
        out.activity.idle_slots += (bundle.slots.len() - bundle.occupancy()) as u64;

        if halted {
            cycle += 1;
            break 'run;
        }
        cycle += 1;
        if taken {
            let pen = u64::from(machine.branch_penalty);
            cycle += pen;
            out.branch_stalls += pen;
        }
        pc = next_pc;
        if pc as usize >= program.bundles.len() {
            return Err(SimError::WildReturn { pc });
        }
    }

    out.cycles = cycle;
    out.activity.cycles = cycle;
    out.memory = static_data(&memory, program.data_words);
    Ok(out)
}

/// Run `program` on the reference (pre-decoded-era) in-order scalar
/// pipeline loop: validate, load globals, apply `inputs`, then execute
/// with `args`.
///
/// # Errors
///
/// Any [`SimError`].
#[allow(clippy::too_many_lines)]
pub fn run_scalar_reference(
    machine: &MachineDescription,
    program: &ScalarProgram,
    inputs: &[(String, Vec<i32>)],
    args: &[i32],
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    let mut span = asip_obs::span("engine", "run");
    span.note("reference");
    program
        .validate(machine)
        .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
    let entry = &program.functions[program.entry_func as usize];
    if args.len() != entry.num_args as usize {
        return Err(SimError::BadArgs {
            expected: entry.num_args,
            got: args.len() as u32,
        });
    }
    let mut memory = initial_memory(machine.dmem_words, &program.globals);
    write_inputs(&mut memory, &program.globals, inputs);

    // Stack setup: arguments at the very top; SP points at the first.
    let top = memory.len() as u32;
    let mut sp = top - args.len() as u32;
    for (i, &a) in args.iter().enumerate() {
        memory[sp as usize + i] = a;
    }
    let mut lr: u32 = LR_HALT;

    let mut regs = vec![0i32; machine.regs_per_cluster as usize];
    let mut reg_ready = vec![0u64; machine.regs_per_cluster as usize];
    // Extra forwarding cost: without bypass, results take one more
    // cycle through the register file before a consumer can issue.
    let fwd_extra: u64 = u64::from(!machine.forwarding);

    let width = machine.issue_width().clamp(1, 2);
    let layout = program.layout(machine.encoding);
    let mut icache = machine.icache.map(ICache::new);

    let mut out = SimResult {
        output: Vec::new(),
        cycles: 0,
        interlock_stalls: 0,
        icache_stalls: 0,
        branch_stalls: 0,
        bundles_executed: 0,
        ops_executed: 0,
        activity: ActivityCounts::default(),
        icache_misses: 0,
        memory: Vec::new(),
    };

    // Current issue group: the unit kinds of the instructions it already
    // holds and whether a control op sealed it.
    let mut cycle: u64 = 0;
    let mut group_kinds: Vec<asip_isa::FuKind> = Vec::with_capacity(width);
    let mut group_closed = false;
    let mut pc: u32 = entry.entry;

    macro_rules! new_group {
        ($advance:expr) => {{
            cycle += $advance;
            group_kinds.clear();
            group_closed = false;
        }};
    }

    'run: loop {
        if cycle > opts.max_cycles {
            return Err(SimError::CycleLimit);
        }
        let op: &MachineOp = &program.insts[pc as usize];
        let kind = op.opcode.fu_kind();

        // 1. Fetch, charging I-cache misses as front-end bubbles.
        let bytes = scalar_inst_bytes(op, machine.encoding);
        if let Some(ic) = icache.as_mut() {
            let misses = ic.access(layout.inst_addr[pc as usize], bytes);
            if misses > 0 {
                let pen = u64::from(misses) * u64::from(ic.miss_penalty());
                let bump = u64::from(!group_kinds.is_empty());
                new_group!(bump + pen);
                out.icache_stalls += pen;
                out.icache_misses += u64::from(misses);
            }
        }
        out.activity.fetch_bytes += u64::from(bytes);

        // 2. Structural hazards: group full, sealed by a control op, or
        //    no slot assignment covers the group plus this instruction.
        if group_kinds.len() >= width
            || group_closed
            || !group_fits(&machine.slots, &group_kinds, kind)
        {
            new_group!(1);
        }

        // 3. Data hazards: operands (and, for in-order writeback,
        //    destinations) must be ready.
        let mut ready = cycle;
        for r in op.reads().chain(op.dsts.iter().copied()) {
            if !r.is_zero() {
                ready = ready.max(reg_ready[r.index as usize]);
            }
        }
        if ready > cycle {
            out.interlock_stalls += ready - cycle;
            new_group!(ready - cycle);
        }

        // 4. Issue and execute. Architectural state updates immediately
        //    (sequential semantics); the scoreboard carries the timing.
        group_kinds.push(kind);
        if group_kinds.len() == 1 {
            out.bundles_executed += 1;
            out.activity.bundles += 1;
        }
        out.ops_executed += 1;
        count_activity(&mut out.activity, op.opcode);

        let read = |o: &Operand, regs: &Vec<i32>| -> i32 {
            match o {
                Operand::Reg(r) => {
                    if r.is_zero() {
                        0
                    } else {
                        regs[r.index as usize]
                    }
                }
                Operand::Imm(v) => *v,
            }
        };
        let lat = u64::from(machine.latency(op.opcode)) + fwd_extra;
        let write = |d: Reg, v: i32, regs: &mut Vec<i32>, reg_ready: &mut Vec<u64>| {
            if !d.is_zero() {
                regs[d.index as usize] = v;
                let slot = &mut reg_ready[d.index as usize];
                *slot = (*slot).max(cycle + lat);
            }
        };

        let mut next_pc = pc + 1;
        let mut taken = false;
        let mut halted = false;

        match op.opcode {
            Opcode::Ldw => {
                let base = read(&op.srcs[0], &regs);
                let addr = i64::from(base) + i64::from(op.imm);
                if addr < 0 || addr as usize >= memory.len() {
                    return Err(SimError::MemFault { pc, addr });
                }
                let v = memory[addr as usize];
                write(op.dsts[0], v, &mut regs, &mut reg_ready);
            }
            Opcode::Stw => {
                let v = read(&op.srcs[0], &regs);
                let base = read(&op.srcs[1], &regs);
                let addr = i64::from(base) + i64::from(op.imm);
                if addr < 0 || addr as usize >= memory.len() {
                    return Err(SimError::MemFault { pc, addr });
                }
                memory[addr as usize] = v;
            }
            Opcode::Br => {
                next_pc = op.target;
                taken = true;
            }
            Opcode::BrT | Opcode::BrF => {
                let c = read(&op.srcs[0], &regs) != 0;
                let go = if op.opcode == Opcode::BrT { c } else { !c };
                if go {
                    next_pc = op.target;
                    taken = true;
                }
            }
            Opcode::Call => {
                lr = pc + 1;
                next_pc = program.functions[op.target as usize].entry;
                taken = true;
            }
            Opcode::Ret => {
                if lr == LR_HALT {
                    halted = true;
                } else if lr as usize >= program.insts.len() {
                    return Err(SimError::WildReturn { pc });
                } else {
                    next_pc = lr;
                    taken = true;
                }
            }
            Opcode::Halt => halted = true,
            Opcode::Emit => {
                let v = read(&op.srcs[0], &regs);
                out.output.push(v);
            }
            Opcode::AddSp => {
                sp = (i64::from(sp) + i64::from(op.imm)) as u32;
            }
            Opcode::MovFromSp => {
                write(op.dsts[0], sp as i32, &mut regs, &mut reg_ready);
            }
            Opcode::MovFromLr => {
                write(op.dsts[0], lr as i32, &mut regs, &mut reg_ready);
            }
            Opcode::MovToLr => {
                lr = read(&op.srcs[0], &regs) as u32;
            }
            Opcode::CopyX | Opcode::Mov => {
                let v = read(&op.srcs[0], &regs);
                write(op.dsts[0], v, &mut regs, &mut reg_ready);
            }
            Opcode::Select => {
                let c = read(&op.srcs[0], &regs);
                let a = read(&op.srcs[1], &regs);
                let b = read(&op.srcs[2], &regs);
                write(
                    op.dsts[0],
                    if c != 0 { a } else { b },
                    &mut regs,
                    &mut reg_ready,
                );
            }
            Opcode::Custom(k) => {
                let def = &program.custom_ops[k as usize];
                let argv: Vec<i32> = op.srcs.iter().map(|s| read(s, &regs)).collect();
                let outs = def.eval(&argv).map_err(|e| match e {
                    asip_isa::CustomOpError::Eval(_) => SimError::DivideByZero { pc },
                    other => SimError::InvalidProgram(other.to_string()),
                })?;
                for (&d, v) in op.dsts.iter().zip(outs) {
                    write(d, v, &mut regs, &mut reg_ready);
                }
                out.activity.custom_area_executed += def.area.round() as u64;
            }
            Opcode::Nop => {}
            Opcode::Abs | Opcode::Sxtb | Opcode::Sxth => {
                let a = read(&op.srcs[0], &regs);
                let v = op.opcode.eval1(a).expect("unary arith");
                write(op.dsts[0], v, &mut regs, &mut reg_ready);
            }
            _ => {
                let a = read(&op.srcs[0], &regs);
                let b = read(&op.srcs[1], &regs);
                let v = op.opcode.eval2(a, b).map_err(|e| match e {
                    asip_isa::EvalError::DivideByZero => SimError::DivideByZero { pc },
                    asip_isa::EvalError::NotArithmetic => {
                        SimError::InvalidProgram(format!("opcode {} is not executable", op.opcode))
                    }
                })?;
                write(op.dsts[0], v, &mut regs, &mut reg_ready);
            }
        }

        if halted {
            cycle += 1;
            break 'run;
        }
        if taken {
            // Redirect: the branch's own cycle plus the penalty bubbles.
            let pen = u64::from(machine.branch_penalty);
            out.branch_stalls += pen;
            new_group!(1 + pen);
        } else if op.opcode.is_control() {
            // A fall-through control op still seals its issue group.
            group_closed = true;
        }
        pc = next_pc;
        if pc as usize >= program.insts.len() {
            return Err(SimError::WildReturn { pc });
        }
    }

    out.cycles = cycle;
    out.activity.cycles = cycle;
    out.activity.idle_slots =
        (out.activity.bundles * width as u64).saturating_sub(out.ops_executed);
    out.memory = static_data(&memory, program.data_words);
    Ok(out)
}
