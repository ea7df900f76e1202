//! Dead-code elimination driven by global liveness.

use crate::bitset::{clear_bit, has_bit, set_bit};
use crate::func::Function;
use crate::liveness::liveness;

/// Remove instructions whose results are never used. Returns whether
/// anything changed.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    let mut live_now = Vec::new();
    let mut keep = Vec::new();
    // Iterate: removing an inst can kill the uses feeding it. One liveness
    // serves a whole round; each block's backward scan already sees the
    // removals below it in the same block.
    loop {
        let live = liveness(f);
        let mut removed = false;
        // Whether a removed instruction read a register. Removing only
        // readers of nothing (constant moves, global addresses) leaves
        // every live set as it was, so a further round would find nothing.
        let mut removed_a_read = false;
        for (bi, block) in f.blocks.iter_mut().enumerate() {
            live_now.clear();
            live_now.extend_from_slice(live.live_out(bi));
            block
                .term
                .for_each_use(|r| set_bit(&mut live_now, r.0 as usize));
            // Backward scan, marking the instructions to drop.
            keep.clear();
            keep.resize(block.insts.len(), true);
            let mut block_removed = false;
            for (i, inst) in block.insts.iter().enumerate().rev() {
                let (mut defines, mut any_live) = (false, false);
                inst.for_each_def(|d| {
                    defines = true;
                    any_live |= has_bit(&live_now, d.0 as usize);
                });
                if defines && !any_live && inst.is_removable_if_dead() {
                    keep[i] = false;
                    block_removed = true;
                    inst.for_each_use(|_| removed_a_read = true);
                } else {
                    inst.for_each_def(|d| clear_bit(&mut live_now, d.0 as usize));
                    inst.for_each_use(|u| set_bit(&mut live_now, u.0 as usize));
                }
            }
            if block_removed {
                let mut it = keep.iter();
                block
                    .insts
                    .retain(|_| *it.next().expect("keep mask aligned"));
            }
            removed |= block_removed;
        }
        changed |= removed;
        if !removed_a_read {
            break;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, Function};
    use crate::inst::{Addr, GlobalId, Inst, Terminator, VReg, Val};
    use asip_isa::Opcode;

    #[test]
    fn removes_unused_pure_insts() {
        let mut f = Function::new("t", 0, false);
        f.num_vregs = 4;
        f.blocks[0] = Block {
            insts: vec![
                Inst::Bin {
                    op: Opcode::Add,
                    dst: VReg(0),
                    a: Val::Imm(1),
                    b: Val::Imm(2),
                },
                Inst::Bin {
                    op: Opcode::Add,
                    dst: VReg(1),
                    a: Val::Imm(3),
                    b: Val::Imm(4),
                },
                Inst::Emit {
                    val: Val::Reg(VReg(1)),
                },
            ],
            term: Terminator::Ret(None),
        };
        assert!(run(&mut f));
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert!(matches!(
            f.blocks[0].insts[0],
            Inst::Bin { dst: VReg(1), .. }
        ));
    }

    #[test]
    fn removes_transitively_dead_chains() {
        let mut f = Function::new("t", 0, false);
        f.num_vregs = 4;
        f.blocks[0] = Block {
            insts: vec![
                Inst::Bin {
                    op: Opcode::Add,
                    dst: VReg(0),
                    a: Val::Imm(1),
                    b: Val::Imm(2),
                },
                Inst::Bin {
                    op: Opcode::Add,
                    dst: VReg(1),
                    a: Val::Reg(VReg(0)),
                    b: Val::Imm(1),
                },
                Inst::Bin {
                    op: Opcode::Add,
                    dst: VReg(2),
                    a: Val::Reg(VReg(1)),
                    b: Val::Imm(1),
                },
            ],
            term: Terminator::Ret(None),
        };
        assert!(run(&mut f));
        assert!(f.blocks[0].insts.is_empty(), "whole chain is dead");
    }

    #[test]
    fn keeps_stores_and_emits() {
        let mut f = Function::new("t", 0, false);
        f.num_vregs = 4;
        f.blocks[0] = Block {
            insts: vec![
                Inst::Store {
                    val: Val::Imm(1),
                    addr: Addr::global(GlobalId(0)),
                },
                Inst::Emit { val: Val::Imm(2) },
            ],
            term: Terminator::Ret(None),
        };
        assert!(!run(&mut f));
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn keeps_potentially_trapping_div() {
        let mut f = Function::new("t", 1, false);
        f.num_vregs = 4;
        f.blocks[0] = Block {
            insts: vec![Inst::Bin {
                op: Opcode::Div,
                dst: VReg(1),
                a: Val::Imm(1),
                b: Val::Reg(VReg(0)),
            }],
            term: Terminator::Ret(None),
        };
        assert!(!run(&mut f), "dead div by unknown divisor must stay (trap)");
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn removes_dead_loads() {
        let mut f = Function::new("t", 0, false);
        f.num_vregs = 4;
        f.blocks[0] = Block {
            insts: vec![Inst::Load {
                dst: VReg(0),
                addr: Addr::global(GlobalId(0)),
            }],
            term: Terminator::Ret(None),
        };
        assert!(run(&mut f));
        assert!(f.blocks[0].insts.is_empty());
    }

    #[test]
    fn value_live_across_blocks_is_kept() {
        let mut f = Function::new("t", 0, false);
        f.num_vregs = 4;
        let b1 = f.new_block();
        f.blocks[0] = Block {
            insts: vec![Inst::Bin {
                op: Opcode::Add,
                dst: VReg(0),
                a: Val::Imm(1),
                b: Val::Imm(2),
            }],
            term: Terminator::Jump(b1),
        };
        f.block_mut(b1).insts.push(Inst::Emit {
            val: Val::Reg(VReg(0)),
        });
        f.block_mut(b1).term = Terminator::Ret(None);
        assert!(!run(&mut f));
        assert_eq!(f.blocks[0].insts.len(), 1);
    }
}
