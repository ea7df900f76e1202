//! Final emission: scheduled, allocated LIR → a linked [`VliwProgram`].
//!
//! This is where the remaining symbols are bound: virtual registers become
//! their assigned physical ones, frame references become concrete word
//! offsets (the spill count is final) and block ids become global bundle
//! indices.

use crate::lir::{LFunc, LImm, LModule, LOp, LTarget, LVal};
use crate::regalloc::Assignment;
use crate::sched::EMPTY;
use crate::Allocated;
use asip_ir::Module;
use asip_isa::{Bundle, FuncSym, GlobalSym, MachineDescription, MachineOp, Operand, VliwProgram};

/// Emit the whole program. `scheduled[i]` is the schedule and register
/// assignment of `lm.funcs[i]`.
pub(crate) fn emit_program(
    ir: &Module,
    lm: &LModule,
    scheduled: &[Allocated],
    machine: &MachineDescription,
) -> VliwProgram {
    // Pass 1: lay out bundles; record every block's global bundle index.
    // block_base[f][b] = global index of the first bundle of block b.
    let mut block_base: Vec<Vec<u32>> = Vec::with_capacity(scheduled.len());
    let mut func_entry: Vec<u32> = Vec::with_capacity(scheduled.len());
    let mut next = 0u32;
    for (sf, _) in scheduled {
        let mut bases = Vec::with_capacity(sf.num_blocks());
        func_entry.push(next);
        for b in 0..sf.num_blocks() {
            bases.push(next);
            next += sf.bundles(b).len().max(1) as u32;
        }
        block_base.push(bases);
    }

    // Pass 2: build bundles with resolved operands and targets.
    let mut bundles: Vec<Bundle> = Vec::with_capacity(next as usize);
    for (fi, (sf, regs)) in scheduled.iter().enumerate() {
        let lf = &lm.funcs[fi];
        for (b, block) in lf.blocks.iter().enumerate() {
            if sf.bundles(b).len() == 0 {
                // Keep layout alignment with pass 1 (empty blocks get one
                // empty bundle so every block id has an address).
                bundles.push(Bundle::empty(machine.issue_width()));
                continue;
            }
            for lb in sf.bundles(b) {
                let mut bu = Bundle::empty(machine.issue_width());
                for (si, &o) in lb.iter().enumerate() {
                    if o != EMPTY {
                        let op = &block.ops[o as usize];
                        bu.slots[si] = Some(finalize_op(op, lf, regs, &block_base[fi]));
                    }
                }
                bundles.push(bu);
            }
        }
    }
    debug_assert_eq!(bundles.len(), next as usize);

    let functions = lm
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, lf)| FuncSym {
            name: lf.name.clone(),
            entry: func_entry[fi],
            frame_words: lf.frame_words(),
            num_args: lf.num_args,
        })
        .collect();

    let globals = ir
        .globals
        .iter()
        .zip(&lm.global_addr)
        .map(|(g, &addr)| GlobalSym {
            name: g.name.clone(),
            addr,
            words: g.words,
            init: g.init.clone(),
        })
        .collect();

    VliwProgram {
        machine: machine.name.clone(),
        bundles,
        functions,
        globals,
        custom_ops: ir.custom_ops.clone(),
        entry_func: lm.entry,
        data_words: lm.data_words,
    }
}

fn finalize_op(op: &LOp, lf: &LFunc, regs: &Assignment, block_base: &[u32]) -> MachineOp {
    let resolve_imm = |imm: LImm| -> i32 {
        match imm {
            LImm::Const(v) => v,
            LImm::Frame(fr) => lf.resolve_frame(fr),
        }
    };
    let mut out = MachineOp::new(
        op.opcode,
        op.dsts.iter().map(|&d| regs.reg(d)).collect(),
        op.srcs
            .iter()
            .map(|&s| match s {
                LVal::Reg(r) => Operand::Reg(regs.reg(r)),
                LVal::Imm(v) => Operand::Imm(v),
                LVal::Frame(fr) => Operand::Imm(lf.resolve_frame(fr)),
            })
            .collect(),
    );
    out.imm = resolve_imm(op.imm);
    out.target = match op.target {
        LTarget::None => 0,
        LTarget::Block(b) => block_base[b as usize],
        // Calls carry the *function id*; the simulator looks the entry up
        // in the function table (keeps symbolic call info for DBT).
        LTarget::Func(f) => f,
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_module;
    use crate::BackendOptions;

    #[test]
    fn emitted_program_validates() {
        let mut m = asip_tinyc::compile(
            r#"
            int tab[8] = {1, 2, 3, 4, 5, 6, 7, 8};
            int scale(int x, int k) { return x * k; }
            void main(int n) {
                int s = 0;
                int i;
                for (i = 0; i < 8; i++) s += scale(tab[i], n);
                emit(s);
            }
            "#,
        )
        .unwrap();
        asip_ir::passes::optimize(&mut m, &asip_ir::passes::OptConfig::none());
        let machine = MachineDescription::ember4();
        let out = compile_module(&m, &machine, None, &BackendOptions::default()).unwrap();
        out.program
            .validate(&machine)
            .expect("emitted program must validate");
        assert!(out.program.function("main").is_some());
        assert!(out.program.global("tab").is_some());
        assert_eq!(out.program.global("tab").unwrap().init.len(), 8);
    }

    #[test]
    fn entry_function_recorded() {
        let m = asip_tinyc::compile("void main() { emit(7); }").unwrap();
        let machine = MachineDescription::ember1();
        let out = compile_module(&m, &machine, None, &BackendOptions::default()).unwrap();
        let entry = &out.program.functions[out.program.entry_func as usize];
        assert_eq!(entry.name, "main");
        assert!(out.program.bundles.len() >= 2);
    }
}
