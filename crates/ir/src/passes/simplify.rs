//! CFG simplification: jump threading, block merging, unreachable-code
//! removal.

use crate::cfg::reachable;
use crate::func::Function;
use crate::inst::{BlockId, Terminator};

/// Simplify the CFG of `f` to a fixpoint. Returns whether anything changed.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    for _ in 0..64 {
        let c = thread_jumps(f) | merge_blocks(f) | drop_unreachable(f);
        changed |= c;
        if !c {
            break;
        }
    }
    changed
}

/// Redirect edges that target an empty block ending in an unconditional
/// jump. Also collapses `Branch` with identical successors into `Jump`.
fn thread_jumps(f: &mut Function) -> bool {
    let mut changed = false;
    // Resolve chains b -> c (c empty, Jump d) with cycle protection.
    let resolve = |start: BlockId, f: &Function| -> BlockId {
        let mut cur = start;
        let mut hops = 0;
        while hops < f.blocks.len() {
            let b = f.block(cur);
            if b.insts.is_empty() {
                if let Terminator::Jump(next) = b.term {
                    if next == cur {
                        break; // self-loop
                    }
                    cur = next;
                    hops += 1;
                    continue;
                }
            }
            break;
        }
        cur
    };
    for i in 0..f.blocks.len() {
        let mut term = f.blocks[i].term.clone();
        let before = term.clone();
        term.map_blocks(|b| resolve(b, f));
        if let Terminator::Branch { t, f: fl, c } = term.clone() {
            if t == fl {
                term = Terminator::Jump(t);
                let _ = c;
            }
        }
        if term != before {
            f.blocks[i].term = term;
            changed = true;
        }
    }
    changed
}

/// Merge `b -> c` when `b` ends in an unconditional jump to `c` and `c` has
/// exactly one predecessor.
fn merge_blocks(f: &mut Function) -> bool {
    let mut changed = false;
    // A merge keeps every block's predecessor count: `c`'s out-edges move to
    // `b`, and `c` is left as a self-loop, its own one predecessor. So the
    // counts are computed once, and after a merge only `b`, which took
    // `c`'s terminator, can have become mergeable.
    let mut num_preds = vec![0u32; f.blocks.len()];
    for b in &f.blocks {
        b.term.for_each_successor(|s| num_preds[s.0 as usize] += 1);
    }
    for i in 0..f.blocks.len() {
        while let Terminator::Jump(target) = f.blocks[i].term {
            if target.0 as usize == i || num_preds[target.0 as usize] != 1 || target == f.entry {
                break;
            }
            // Move target's contents into block i. Leave the donor as an
            // unreachable self-loop; drop_unreachable cleans it up.
            let donor = std::mem::replace(
                &mut f.blocks[target.0 as usize],
                crate::func::Block::jump_to(target),
            );
            f.blocks[i].insts.extend(donor.insts);
            f.blocks[i].term = donor.term;
            changed = true;
        }
    }
    changed
}

/// Remove unreachable blocks, compacting ids.
fn drop_unreachable(f: &mut Function) -> bool {
    let reach = reachable(f);
    if reach.iter().all(|&r| r) {
        return false;
    }
    let mut remap = vec![BlockId(u32::MAX); f.blocks.len()];
    let mut kept = 0;
    for (i, &keep) in reach.iter().enumerate() {
        if keep {
            remap[i] = BlockId(kept);
            kept += 1;
        }
    }
    let mut keep = reach.iter();
    f.blocks
        .retain(|_| *keep.next().expect("one flag per block"));
    for b in &mut f.blocks {
        b.term.map_blocks(|old| remap[old.0 as usize]);
    }
    f.entry = remap[f.entry.0 as usize];
    debug_assert_eq!(f.entry, BlockId(0));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, Function};
    use crate::inst::{Inst, VReg, Val};
    use asip_isa::Opcode;

    #[test]
    fn threads_empty_jump_chains() {
        let mut f = Function::new("t", 0, false);
        let b1 = f.new_block(); // empty
        let b2 = f.new_block(); // real target
        f.blocks[0].term = Terminator::Jump(b1);
        f.block_mut(b1).term = Terminator::Jump(b2);
        f.block_mut(b2).insts.push(Inst::Emit { val: Val::Imm(1) });
        f.block_mut(b2).term = Terminator::Ret(None);
        assert!(run(&mut f));
        // After threading + merging + cleanup only one block remains.
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn merges_single_pred_chain() {
        let mut f = Function::new("t", 0, false);
        let b1 = f.new_block();
        f.blocks[0] = Block {
            insts: vec![Inst::Un {
                op: Opcode::Mov,
                dst: VReg(0),
                a: Val::Imm(1),
            }],
            term: Terminator::Jump(b1),
        };
        f.num_vregs = 2;
        f.block_mut(b1).insts.push(Inst::Emit {
            val: Val::Reg(VReg(0)),
        });
        f.block_mut(b1).term = Terminator::Ret(None);
        assert!(run(&mut f));
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert_eq!(f.blocks[0].term, Terminator::Ret(None));
    }

    #[test]
    fn branch_with_equal_targets_becomes_jump() {
        let mut f = Function::new("t", 1, false);
        let b1 = f.new_block();
        f.blocks[0].term = Terminator::Branch {
            c: Val::Reg(VReg(0)),
            t: b1,
            f: b1,
        };
        f.block_mut(b1).insts.push(Inst::Emit { val: Val::Imm(3) });
        f.block_mut(b1).term = Terminator::Ret(None);
        assert!(run(&mut f));
        assert_eq!(f.blocks.len(), 1, "then merged");
    }

    #[test]
    fn removes_unreachable_blocks() {
        let mut f = Function::new("t", 0, false);
        let dead = f.new_block();
        f.block_mut(dead)
            .insts
            .push(Inst::Emit { val: Val::Imm(9) });
        assert!(run(&mut f));
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    fn keeps_loops_intact() {
        let mut f = Function::new("t", 1, false);
        let body = f.new_block();
        let exit = f.new_block();
        f.blocks[0].term = Terminator::Branch {
            c: Val::Reg(VReg(0)),
            t: body,
            f: exit,
        };
        f.block_mut(body)
            .insts
            .push(Inst::Emit { val: Val::Imm(1) });
        f.block_mut(body).term = Terminator::Jump(BlockId(0));
        f.block_mut(exit).term = Terminator::Ret(None);
        let before = f.clone();
        assert!(!run(&mut f));
        assert_eq!(f, before, "a minimal loop must not be rewritten");
    }

    #[test]
    fn self_loop_does_not_hang_threading() {
        let mut f = Function::new("t", 0, false);
        let b1 = f.new_block();
        f.blocks[0].term = Terminator::Jump(b1);
        f.block_mut(b1).term = Terminator::Jump(b1); // empty self-loop
        run(&mut f); // must terminate
        assert!(f.blocks.len() <= 2);
    }
}
