//! If-conversion: turn short branchy diamonds and triangles into straight-line
//! code with `Select` operations.
//!
//! This is the key enabler for wide issue on branchy embedded code (paper
//! §1.2's `Select`-style "special ops"): a converted hammock costs a few
//! ALU slots instead of a branch misprediction and a fetch redirect.

use crate::cfg::predecessors;
use crate::func::Function;
use crate::inst::{BlockId, Inst, Terminator, VReg, Val};
use crate::liveness::liveness;
use std::collections::BTreeMap;

/// Maximum instructions per converted side.
const MAX_SIDE: usize = 8;

/// Run if-conversion to a fixpoint. Returns whether anything changed.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        if convert_one(f) {
            changed = true;
            super::simplify::run(f);
        } else {
            break;
        }
    }
    changed
}

/// Find and convert one hammock; returns true if a conversion happened.
fn convert_one(f: &mut Function) -> bool {
    let preds = predecessors(f);
    for bi in 0..f.blocks.len() {
        let (c, t, fl) = match f.blocks[bi].term {
            Terminator::Branch { c, t, f: fl } if t != fl => (c, t, fl),
            _ => continue,
        };
        let b = BlockId(bi as u32);

        let side_ok = |s: BlockId, f: &Function, preds: &[Vec<BlockId>]| -> bool {
            s != b
                && preds[s.0 as usize].len() == 1
                && f.block(s).insts.len() <= MAX_SIDE
                && f.block(s).insts.iter().all(Inst::is_pure)
                && matches!(f.block(s).term, Terminator::Jump(_))
        };
        let jump_target = |s: BlockId, f: &Function| -> BlockId {
            match f.block(s).term {
                Terminator::Jump(j) => j,
                _ => unreachable!("side_ok checked"),
            }
        };

        // Diamond: b -> t, f; t -> j; f -> j.
        if side_ok(t, f, &preds) && side_ok(fl, f, &preds) {
            let jt = jump_target(t, f);
            let jf = jump_target(fl, f);
            if jt == jf && jt != t && jt != fl {
                convert(f, b, c, Some(t), Some(fl), jt);
                return true;
            }
        }
        // Triangle: b -> t, f; t -> f (then-side only).
        if side_ok(t, f, &preds) && jump_target(t, f) == fl && fl != t {
            convert(f, b, c, Some(t), None, fl);
            return true;
        }
        // Triangle: b -> t, f; f -> t (else-side only).
        if side_ok(fl, f, &preds) && jump_target(fl, f) == t && t != fl {
            convert(f, b, c, None, Some(fl), t);
            return true;
        }
    }
    false
}

/// Splice the sides into `b`, rename their defs, and emit selects for values
/// that flow to the join.
fn convert(
    f: &mut Function,
    b: BlockId,
    c: Val,
    t_side: Option<BlockId>,
    f_side: Option<BlockId>,
    join: BlockId,
) {
    let live = liveness(f);
    // Rename the defs of a side's instructions to fresh registers, tracking
    // the final name of each original register.
    let splice = |side: Option<BlockId>, f: &mut Function| -> (Vec<Inst>, BTreeMap<VReg, VReg>) {
        let Some(s) = side else {
            return (Vec::new(), BTreeMap::new());
        };
        let insts = f.block(s).insts.clone();
        let mut rename: BTreeMap<VReg, VReg> = BTreeMap::new();
        let mut out = Vec::with_capacity(insts.len());
        for mut inst in insts {
            inst.map_uses(|r| Val::Reg(rename.get(&r).copied().unwrap_or(r)));
            inst.map_defs(|d| {
                let fresh = f.new_vreg();
                rename.insert(d, fresh);
                fresh
            });
            out.push(inst);
        }
        (out, rename)
    };

    let (t_insts, t_map) = splice(t_side, f);
    let (f_insts, f_map) = splice(f_side, f);

    // Values needing a select: defined on either side and live into the join.
    let mut merged: Vec<VReg> = t_map.keys().chain(f_map.keys()).copied().collect();
    merged.sort();
    merged.dedup();

    let block = f.block_mut(b);
    block.insts.extend(t_insts);
    block.insts.extend(f_insts);
    for v in merged {
        if !live.is_live_in(join.0 as usize, v) {
            continue;
        }
        let tv = t_map.get(&v).copied().map(Val::Reg).unwrap_or(Val::Reg(v));
        let fv = f_map.get(&v).copied().map(Val::Reg).unwrap_or(Val::Reg(v));
        block.insts.push(Inst::Select {
            dst: v,
            c,
            a: tv,
            b: fv,
        });
    }
    block.term = Terminator::Jump(join);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Module;
    use crate::interp::run_module;
    use asip_isa::Opcode;

    /// main(x): if (x > 0) y = x*2; else y = -x; emit y
    fn diamond() -> Function {
        let mut f = Function::new("main", 1, false);
        let y = f.new_vreg();
        let c = f.new_vreg();
        let tb = f.new_block();
        let fb = f.new_block();
        let join = f.new_block();
        f.blocks[0].insts.push(Inst::Bin {
            op: Opcode::CmpGt,
            dst: c,
            a: Val::Reg(VReg(0)),
            b: Val::Imm(0),
        });
        f.blocks[0].term = Terminator::Branch {
            c: Val::Reg(c),
            t: tb,
            f: fb,
        };
        f.block_mut(tb).insts.push(Inst::Bin {
            op: Opcode::Mul,
            dst: y,
            a: Val::Reg(VReg(0)),
            b: Val::Imm(2),
        });
        f.block_mut(tb).term = Terminator::Jump(join);
        f.block_mut(fb).insts.push(Inst::Bin {
            op: Opcode::Sub,
            dst: y,
            a: Val::Imm(0),
            b: Val::Reg(VReg(0)),
        });
        f.block_mut(fb).term = Terminator::Jump(join);
        f.block_mut(join)
            .insts
            .push(Inst::Emit { val: Val::Reg(y) });
        f.block_mut(join).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn diamond_becomes_straight_line() {
        let mut f = diamond();
        assert!(run(&mut f));
        assert_eq!(f.blocks.len(), 1, "everything merged into the entry");
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Select { .. })));
        assert!(matches!(f.blocks[0].term, Terminator::Ret(None)));
    }

    #[test]
    fn diamond_semantics_preserved() {
        let f0 = diamond();
        let mut f1 = f0.clone();
        run(&mut f1);
        let m0 = Module {
            funcs: vec![f0],
            globals: vec![],
            custom_ops: vec![],
        };
        let m1 = Module {
            funcs: vec![f1],
            globals: vec![],
            custom_ops: vec![],
        };
        for x in [-5, -1, 0, 1, 9] {
            assert_eq!(
                run_module(&m0, "main", &[x]).unwrap().output,
                run_module(&m1, "main", &[x]).unwrap().output,
                "x={x}"
            );
        }
    }

    /// main(x): y = 1; if (x > 3) y = x; emit y   (triangle)
    fn triangle() -> Function {
        let mut f = Function::new("main", 1, false);
        let y = f.new_vreg();
        let c = f.new_vreg();
        let tb = f.new_block();
        let join = f.new_block();
        f.blocks[0].insts.extend([
            Inst::Un {
                op: Opcode::Mov,
                dst: y,
                a: Val::Imm(1),
            },
            Inst::Bin {
                op: Opcode::CmpGt,
                dst: c,
                a: Val::Reg(VReg(0)),
                b: Val::Imm(3),
            },
        ]);
        f.blocks[0].term = Terminator::Branch {
            c: Val::Reg(c),
            t: tb,
            f: join,
        };
        f.block_mut(tb).insts.push(Inst::Un {
            op: Opcode::Mov,
            dst: y,
            a: Val::Reg(VReg(0)),
        });
        f.block_mut(tb).term = Terminator::Jump(join);
        f.block_mut(join)
            .insts
            .push(Inst::Emit { val: Val::Reg(y) });
        f.block_mut(join).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn triangle_converts_and_preserves_semantics() {
        let f0 = triangle();
        let mut f1 = f0.clone();
        assert!(run(&mut f1));
        assert_eq!(f1.blocks.len(), 1);
        let m0 = Module {
            funcs: vec![f0],
            globals: vec![],
            custom_ops: vec![],
        };
        let m1 = Module {
            funcs: vec![f1],
            globals: vec![],
            custom_ops: vec![],
        };
        for x in [0, 3, 4, 100] {
            assert_eq!(
                run_module(&m0, "main", &[x]).unwrap().output,
                run_module(&m1, "main", &[x]).unwrap().output
            );
        }
    }

    #[test]
    fn impure_sides_not_converted() {
        let mut f = diamond();
        // Make the then-side impure with a store.
        f.block_mut(BlockId(1)).insts.push(Inst::Store {
            val: Val::Imm(1),
            addr: crate::inst::Addr::reg(VReg(0)),
        });
        assert!(!run(&mut f));
        assert_eq!(f.blocks.len(), 4, "untouched");
    }

    #[test]
    fn oversized_sides_not_converted() {
        let mut f = diamond();
        for _ in 0..(MAX_SIDE + 1) {
            let d = f.new_vreg();
            f.block_mut(BlockId(1)).insts.push(Inst::Bin {
                op: Opcode::Add,
                dst: d,
                a: Val::Imm(0),
                b: Val::Imm(0),
            });
        }
        assert!(!run(&mut f));
    }

    #[test]
    fn side_local_temporaries_do_not_get_selects() {
        // A value defined and consumed entirely inside one side must not
        // produce a select at the join.
        let mut f = diamond();
        let tmp = f.new_vreg();
        let y = VReg(1);
        let tb = BlockId(1);
        f.block_mut(tb).insts.clear();
        f.block_mut(tb).insts.extend([
            Inst::Bin {
                op: Opcode::Add,
                dst: tmp,
                a: Val::Reg(VReg(0)),
                b: Val::Imm(1),
            },
            Inst::Bin {
                op: Opcode::Mul,
                dst: y,
                a: Val::Reg(tmp),
                b: Val::Imm(2),
            },
        ]);
        let mut f1 = f.clone();
        assert!(run(&mut f1));
        let selects = f1.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Select { .. }))
            .count();
        assert_eq!(selects, 1, "only y merges");
    }
}
