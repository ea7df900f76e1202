//! Loop-invariant code motion.
//!
//! Hoists pure, speculable instructions whose operands are not redefined
//! inside the loop into a preheader block. Because hoisted instructions are
//! trap-free and side-effect-free, executing them when the loop body would
//! not have run is harmless; the remaining conditions guarantee the hoisted
//! value equals the in-loop value on every iteration:
//!
//! * every source register has **no definitions inside the loop**;
//! * the destination has **exactly one definition inside the loop** (the
//!   candidate itself);
//! * the destination is **not live into the loop header** (so the preheader
//!   definition cannot clobber a value the first iterations read from
//!   outside).

use crate::bitset::{self, has_bit, set_bit};
use crate::cfg::{natural_loops, predecessors, NaturalLoop};
use crate::func::{Block, Function};
use crate::inst::{BlockId, Terminator};
use crate::liveness::{liveness, Liveness};

/// Run LICM on every natural loop. Returns whether anything moved.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    // One analysis (loops and liveness) serves every loop visited up to the
    // first that hoists. Hoisting inserts a preheader and moves code, so
    // the analysis is then recomputed.
    loop {
        let loops = natural_loops(f);
        if loops.is_empty() {
            break;
        }
        let live = liveness(f);
        if !loops.iter().any(|l| hoist_one_loop(f, l, &live)) {
            break;
        }
        changed = true;
    }
    changed
}

fn hoist_one_loop(f: &mut Function, l: &NaturalLoop, live: &Liveness) -> bool {
    let nv = f.num_vregs as usize;

    // Count definitions of every register inside the loop.
    let mut def_count = vec![0u32; nv];
    for &b in &l.blocks {
        for inst in &f.block(b).insts {
            inst.for_each_def(|d| def_count[d.0 as usize] += 1);
        }
    }

    // Candidates: pure insts, invariant sources, single def, not live into
    // the header.
    let header_live = live.live_in(l.header.0 as usize);
    let mut to_hoist: Vec<(BlockId, usize)> = Vec::new();
    let mut hoisted = vec![0u64; bitset::words(nv)];
    for &b in &l.blocks {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if !inst.is_pure() {
                continue;
            }
            let mut ok = true;
            inst.for_each_use(|u| {
                let u = u.0 as usize;
                ok &= def_count[u] == 0 || has_bit(&hoisted, u);
            });
            inst.for_each_def(|d| {
                let d = d.0 as usize;
                ok &= def_count[d] == 1 && !has_bit(header_live, d);
            });
            if ok {
                to_hoist.push((b, i));
                inst.for_each_def(|d| set_bit(&mut hoisted, d.0 as usize));
            }
        }
    }
    if to_hoist.is_empty() {
        return false;
    }

    // Build (or reuse) a preheader: a fresh block between all non-loop
    // predecessors of the header and the header.
    let preds = predecessors(f);
    let outside_preds: Vec<BlockId> = preds[l.header.0 as usize]
        .iter()
        .copied()
        .filter(|p| !l.contains(*p))
        .collect();
    if outside_preds.is_empty() {
        return false; // unreachable loop
    }
    let pre = BlockId(f.blocks.len() as u32);
    f.blocks.push(Block {
        insts: Vec::new(),
        term: Terminator::Jump(l.header),
    });
    for p in outside_preds {
        let header = l.header;
        f.block_mut(p)
            .term
            .map_blocks(|b| if b == header { pre } else { b });
    }

    // Move the instructions out in block-id order, each block's in index
    // order, keeping dependency order among hoisted ops.
    to_hoist.sort_by_key(|&(b, _)| b);
    let mut moved = Vec::with_capacity(to_hoist.len());
    for run in to_hoist.chunk_by(|x, y| x.0 == y.0) {
        let block = f.block_mut(run[0].0);
        let mut picks = run.iter().map(|&(_, i)| i).peekable();
        for (i, inst) in std::mem::take(&mut block.insts).into_iter().enumerate() {
            if picks.next_if_eq(&i).is_some() {
                moved.push(inst);
            } else {
                block.insts.push(inst);
            }
        }
    }
    // Order hoisted instructions topologically by def-use among themselves.
    let mut ordered = Vec::with_capacity(moved.len());
    let mut placed = vec![0u64; bitset::words(nv)];
    let mut pending = moved;
    while !pending.is_empty() {
        let before = pending.len();
        let mut rest = Vec::new();
        for inst in pending {
            let mut ready = true;
            inst.for_each_use(|u| {
                let u = u.0 as usize;
                ready &= !has_bit(&hoisted, u) || has_bit(&placed, u);
            });
            if ready {
                inst.for_each_def(|d| set_bit(&mut placed, d.0 as usize));
                ordered.push(inst);
            } else {
                rest.push(inst);
            }
        }
        pending = rest;
        if pending.len() == before {
            // Cycle between hoisted ops cannot happen (each has a single
            // def and invariant sources), but guard against it.
            ordered.extend(pending);
            break;
        }
    }
    f.block_mut(pre).insts = ordered;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, VReg, Val};
    use crate::interp::run_module;
    use asip_isa::Opcode;

    /// while (i < n) { t = n * 3 (invariant); s += t; i += 1 } emit s
    fn loop_with_invariant() -> Function {
        let mut f = Function::new("main", 1, false);
        let s = f.new_vreg();
        let i = f.new_vreg();
        let c = f.new_vreg();
        let t = f.new_vreg();
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.blocks[0].insts.extend([
            Inst::Un {
                op: Opcode::Mov,
                dst: s,
                a: Val::Imm(0),
            },
            Inst::Un {
                op: Opcode::Mov,
                dst: i,
                a: Val::Imm(0),
            },
        ]);
        f.blocks[0].term = Terminator::Jump(header);
        f.block_mut(header).insts.push(Inst::Bin {
            op: Opcode::CmpLt,
            dst: c,
            a: Val::Reg(i),
            b: Val::Reg(VReg(0)),
        });
        f.block_mut(header).term = Terminator::Branch {
            c: Val::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).insts.extend([
            Inst::Bin {
                op: Opcode::Mul,
                dst: t,
                a: Val::Reg(VReg(0)),
                b: Val::Imm(3),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: s,
                a: Val::Reg(s),
                b: Val::Reg(t),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: i,
                a: Val::Reg(i),
                b: Val::Imm(1),
            },
        ]);
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit)
            .insts
            .push(Inst::Emit { val: Val::Reg(s) });
        f.block_mut(exit).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn hoists_invariant_multiply() {
        let mut f = loop_with_invariant();
        let body_muls_before = count_muls_in_loop(&f);
        assert_eq!(body_muls_before, 1);
        assert!(run(&mut f));
        // The multiply left the loop body.
        assert_eq!(count_muls_in_loop(&f), 0);
    }

    fn count_muls_in_loop(f: &Function) -> usize {
        let loops = natural_loops(f);
        loops
            .iter()
            .flat_map(|l| l.blocks.iter())
            .map(|&b| {
                f.block(b)
                    .insts
                    .iter()
                    .filter(|i| {
                        matches!(
                            i,
                            Inst::Bin {
                                op: Opcode::Mul,
                                ..
                            }
                        )
                    })
                    .count()
            })
            .sum()
    }

    #[test]
    fn semantics_preserved() {
        let f0 = loop_with_invariant();
        let mut f1 = f0.clone();
        run(&mut f1);
        let m0 = crate::func::Module {
            funcs: vec![f0],
            globals: vec![],
            custom_ops: vec![],
        };
        let m1 = crate::func::Module {
            funcs: vec![f1],
            globals: vec![],
            custom_ops: vec![],
        };
        for n in [0, 1, 7] {
            let r0 = run_module(&m0, "main", &[n]).unwrap();
            let r1 = run_module(&m1, "main", &[n]).unwrap();
            assert_eq!(r0.output, r1.output, "n={n}");
        }
    }

    #[test]
    fn does_not_hoist_variant_values() {
        // s += i is variant: must stay.
        let mut f = loop_with_invariant();
        run(&mut f);
        let loops = natural_loops(&f);
        let l = &loops[0];
        let adds: usize = l
            .blocks
            .iter()
            .map(|&b| {
                f.block(b)
                    .insts
                    .iter()
                    .filter(|i| {
                        matches!(
                            i,
                            Inst::Bin {
                                op: Opcode::Add,
                                ..
                            }
                        )
                    })
                    .count()
            })
            .sum();
        assert!(adds >= 2, "accumulation and induction stay inside");
    }

    #[test]
    fn does_not_hoist_loads_or_stores() {
        let mut f = loop_with_invariant();
        // Replace the invariant multiply with an (invariant-looking) load.
        let body = BlockId(2);
        f.block_mut(body).insts[0] = Inst::Load {
            dst: VReg(4),
            addr: crate::inst::Addr::reg(VReg(0)),
        };
        let before = f.clone();
        run(&mut f);
        // The load must still be in the body block (loads are not pure).
        let still_there = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert_eq!(still_there, 1);
        let loops = natural_loops(&f);
        assert!(loops[0].blocks.iter().any(|&b| f
            .block(b)
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Load { .. }))));
        let _ = before;
    }
}
