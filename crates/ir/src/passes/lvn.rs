//! Local value numbering with integrated copy/constant propagation.
//!
//! Works block-locally on the non-SSA IR by versioning virtual registers:
//! a table entry is invalidated the moment any register it mentions is
//! redefined.

use crate::func::Function;
use crate::inst::{Inst, Terminator, VReg, Val};
use asip_isa::Opcode;
use std::collections::HashMap;

/// Operand key: immediates by value, registers by (name, version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    Imm(i32),
    Reg(u32, u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(Opcode, Key, Key),
    Un(Opcode, Key),
    Select(Key, Key, Key),
}

/// Run LVN + copy propagation over every block. Returns whether anything
/// changed.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    let nv = f.num_vregs as usize;
    // Tables sized once per function and emptied per block. Versions are
    // never reset: entries are compared only within one block, where a
    // register's version still changes exactly at its definitions.
    let mut version = vec![0u32; nv];
    // copies[r] = (value r currently equals, src version at record time)
    let mut copies: Vec<Option<(Val, u32)>> = vec![None; nv];
    let mut copied: Vec<VReg> = Vec::new(); // registers with a `copies` entry
    let mut exprs: HashMap<ExprKey, (u32, u32)> = HashMap::new(); // -> (vreg, version)

    let key_of = |v: Val, version: &[u32]| -> Key {
        match v {
            Val::Imm(k) => Key::Imm(k),
            Val::Reg(r) => Key::Reg(r.0, version[r.0 as usize]),
        }
    };
    // The value `r` currently equals, if a copy of it is still valid.
    let copy_of =
        |r: VReg, copies: &[Option<(Val, u32)>], version: &[u32]| match copies[r.0 as usize] {
            Some((Val::Reg(src), ver)) if version[src.0 as usize] != ver => None,
            c => c.map(|(val, _)| val),
        };

    for block in &mut f.blocks {
        for r in copied.drain(..) {
            copies[r.0 as usize] = None;
        }
        exprs.clear();

        for inst in &mut block.insts {
            // 1. Copy/constant propagate into operands.
            changed |= inst.map_uses(|r| copy_of(r, &copies, &version).unwrap_or(Val::Reg(r)));

            // 2. Value-number pure expressions.
            let pure = inst.is_pure();
            let expr = match inst {
                Inst::Bin { op, dst, a, b } if pure => {
                    let (mut ka, mut kb) = (key_of(*a, &version), key_of(*b, &version));
                    if op.is_commutative() && kb < ka {
                        std::mem::swap(&mut ka, &mut kb);
                    }
                    Some((ExprKey::Bin(*op, ka, kb), *dst))
                }
                Inst::Un { op, dst, a } if *op != Opcode::Mov => {
                    Some((ExprKey::Un(*op, key_of(*a, &version)), *dst))
                }
                Inst::Select { dst, c, a, b } => Some((
                    ExprKey::Select(
                        key_of(*c, &version),
                        key_of(*a, &version),
                        key_of(*b, &version),
                    ),
                    *dst,
                )),
                _ => None,
            };

            let mut replaced = false;
            if let Some((e, dst)) = expr {
                if let Some(&(src, ver)) = exprs.get(&e) {
                    if version[src as usize] == ver && src != dst.0 {
                        *inst = Inst::Un {
                            op: Opcode::Mov,
                            dst,
                            a: Val::Reg(VReg(src)),
                        };
                        changed = true;
                        replaced = true;
                    }
                }
            }

            // 3. Kill and re-record definitions.
            inst.for_each_def(|d| {
                version[d.0 as usize] += 1;
                copies[d.0 as usize] = None;
            });
            if let Some((e, dst)) = expr {
                if !replaced {
                    exprs.insert(e, (dst.0, version[dst.0 as usize]));
                }
            }

            // 4. Record copies (after the version bump so self-moves expire).
            if let Inst::Un {
                op: Opcode::Mov,
                dst,
                a,
            } = inst
            {
                let ver = match a {
                    Val::Imm(_) => 0,
                    Val::Reg(r) => version[r.0 as usize],
                };
                // A move onto itself carries no information.
                if a.reg() != Some(*dst) {
                    copies[dst.0 as usize] = Some((*a, ver));
                    copied.push(*dst);
                }
            }
        }

        // Propagate into the terminator too.
        if let Terminator::Branch { c: v, .. } | Terminator::Ret(Some(v)) = &mut block.term {
            if let Val::Reg(r) = *v {
                if let Some(val) = copy_of(r, &copies, &version) {
                    *v = val;
                    changed = true;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, Function};
    use crate::inst::{Terminator, VReg};

    fn f_with(insts: Vec<Inst>) -> Function {
        let mut f = Function::new("t", 2, false);
        f.num_vregs = 16;
        f.blocks[0] = Block {
            insts,
            term: Terminator::Ret(None),
        };
        f
    }

    #[test]
    fn cse_within_block() {
        let mut f = f_with(vec![
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(2),
                a: Val::Reg(VReg(0)),
                b: Val::Reg(VReg(1)),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(3),
                a: Val::Reg(VReg(0)),
                b: Val::Reg(VReg(1)),
            },
        ]);
        assert!(run(&mut f));
        assert_eq!(
            f.blocks[0].insts[1],
            Inst::Un {
                op: Opcode::Mov,
                dst: VReg(3),
                a: Val::Reg(VReg(2))
            }
        );
    }

    #[test]
    fn cse_respects_redefinition() {
        let mut f = f_with(vec![
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(2),
                a: Val::Reg(VReg(0)),
                b: Val::Reg(VReg(1)),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(0),
                a: Val::Reg(VReg(0)),
                b: Val::Imm(1),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(3),
                a: Val::Reg(VReg(0)),
                b: Val::Reg(VReg(1)),
            },
        ]);
        run(&mut f);
        // v0 changed between the two adds: the second must NOT be CSE'd.
        assert!(matches!(
            f.blocks[0].insts[2],
            Inst::Bin {
                op: Opcode::Add,
                ..
            }
        ));
    }

    #[test]
    fn cse_commutative_operands() {
        let mut f = f_with(vec![
            Inst::Bin {
                op: Opcode::Mul,
                dst: VReg(2),
                a: Val::Reg(VReg(0)),
                b: Val::Reg(VReg(1)),
            },
            Inst::Bin {
                op: Opcode::Mul,
                dst: VReg(3),
                a: Val::Reg(VReg(1)),
                b: Val::Reg(VReg(0)),
            },
        ]);
        assert!(run(&mut f));
        assert_eq!(
            f.blocks[0].insts[1],
            Inst::Un {
                op: Opcode::Mov,
                dst: VReg(3),
                a: Val::Reg(VReg(2))
            }
        );
    }

    #[test]
    fn copy_propagation_through_mov() {
        let mut f = f_with(vec![
            Inst::Un {
                op: Opcode::Mov,
                dst: VReg(2),
                a: Val::Reg(VReg(0)),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(3),
                a: Val::Reg(VReg(2)),
                b: Val::Imm(1),
            },
        ]);
        assert!(run(&mut f));
        assert_eq!(
            f.blocks[0].insts[1],
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(3),
                a: Val::Reg(VReg(0)),
                b: Val::Imm(1)
            }
        );
    }

    #[test]
    fn copy_propagation_invalidated_by_redef() {
        let mut f = f_with(vec![
            Inst::Un {
                op: Opcode::Mov,
                dst: VReg(2),
                a: Val::Reg(VReg(0)),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: VReg(0),
                a: Val::Reg(VReg(0)),
                b: Val::Imm(5),
            },
            Inst::Emit {
                val: Val::Reg(VReg(2)),
            },
        ]);
        run(&mut f);
        // v2 must still be emitted as v2 (v0 changed since the copy).
        assert_eq!(
            f.blocks[0].insts[2],
            Inst::Emit {
                val: Val::Reg(VReg(2))
            }
        );
    }

    #[test]
    fn constant_propagates_into_terminator() {
        let mut f = Function::new("t", 0, false);
        f.num_vregs = 4;
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.blocks[0] = Block {
            insts: vec![Inst::Un {
                op: Opcode::Mov,
                dst: VReg(1),
                a: Val::Imm(1),
            }],
            term: Terminator::Branch {
                c: Val::Reg(VReg(1)),
                t: b1,
                f: b2,
            },
        };
        assert!(run(&mut f));
        assert_eq!(
            f.blocks[0].term,
            Terminator::Branch {
                c: Val::Imm(1),
                t: b1,
                f: b2
            }
        );
    }

    #[test]
    fn division_not_value_numbered() {
        // Div may trap; it must not be CSE'd away into a Mov (two traps
        // collapse to one, which is fine, but our conservative rule keeps
        // both — assert that behaviour).
        let mut f = f_with(vec![
            Inst::Bin {
                op: Opcode::Div,
                dst: VReg(2),
                a: Val::Reg(VReg(0)),
                b: Val::Reg(VReg(1)),
            },
            Inst::Bin {
                op: Opcode::Div,
                dst: VReg(3),
                a: Val::Reg(VReg(0)),
                b: Val::Reg(VReg(1)),
            },
        ]);
        run(&mut f);
        assert!(matches!(
            f.blocks[0].insts[1],
            Inst::Bin {
                op: Opcode::Div,
                ..
            }
        ));
    }
}
