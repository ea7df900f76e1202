//! Classic backward dataflow liveness over virtual registers.
//!
//! Sets are [`bitset`] rows over register numbers, one live-in and one
//! live-out row per block, so a function with `n` blocks and `v` registers
//! costs `2n` rows of `⌈v/64⌉` words. Every register a verified function
//! names is below its `num_vregs` (see [`verify`](crate::func::verify)).

use crate::bitset::{self, has_bit, set_bit, union_into};
use crate::func::Function;
use crate::inst::VReg;

/// Live-in / live-out sets per block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// The registers live at block `b`'s entry, as a bitset row.
    pub fn live_in(&self, b: usize) -> &[u64] {
        &self.live_in[b * self.words..(b + 1) * self.words]
    }

    /// The registers live at block `b`'s exit, as a bitset row.
    pub fn live_out(&self, b: usize) -> &[u64] {
        &self.live_out[b * self.words..(b + 1) * self.words]
    }

    /// Whether `r` is live entering block `b`.
    pub fn is_live_in(&self, b: usize, r: VReg) -> bool {
        has_bit(self.live_in(b), r.0 as usize)
    }

    /// Whether `r` is live leaving block `b`.
    pub fn is_live_out(&self, b: usize, r: VReg) -> bool {
        has_bit(self.live_out(b), r.0 as usize)
    }
}

/// Run the liveness fixpoint.
pub fn liveness(f: &Function) -> Liveness {
    let n = f.blocks.len();
    let words = bitset::words(f.num_vregs as usize);
    // Per block: upward-exposed uses and defined registers.
    let mut uses = vec![0u64; n * words];
    let mut defs = vec![0u64; n * words];
    for (i, b) in f.blocks.iter().enumerate() {
        let row = i * words..(i + 1) * words;
        let (u, d) = (&mut uses[row.clone()], &mut defs[row]);
        let read = |u: &mut [u64], d: &[u64], r: VReg| {
            if !has_bit(d, r.0 as usize) {
                set_bit(u, r.0 as usize);
            }
        };
        for inst in &b.insts {
            inst.for_each_use(|r| read(u, d, r));
            inst.for_each_def(|r| set_bit(d, r.0 as usize));
        }
        b.term.for_each_use(|r| read(u, d, r));
    }

    // Fixpoint: out = ∪ in(succ), in = uses ∪ (out ∖ defs), iterated from
    // empty sets to the least solution. Reverse block order visits a
    // successor before its predecessors on forward edges.
    let mut live = Liveness {
        words,
        live_in: vec![0u64; n * words],
        live_out: vec![0u64; n * words],
    };
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let row = i * words..(i + 1) * words;
            let out = &mut live.live_out[row.clone()];
            out.fill(0);
            f.blocks[i].term.for_each_successor(|s| {
                union_into(out, &live.live_in[s.0 as usize * words..][..words])
            });
            for (((l, &u), &d), &o) in live.live_in[row.clone()]
                .iter_mut()
                .zip(&uses[row.clone()])
                .zip(&defs[row])
                .zip(&*out)
            {
                let v = u | (o & !d);
                if v != *l {
                    *l = v;
                    changed = true;
                }
            }
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::predecessors;
    use crate::func::{Block, Function, Module};
    use crate::inst::{Inst, Terminator, VReg, Val};
    use crate::passes::{self, constfold, dce, ifconv, inline, licm, lvn, simplify, unroll};
    use asip_isa::codec::Codec;
    use asip_isa::Opcode;
    use std::collections::BTreeSet;

    /// The reference: the set-per-block worklist fixpoint the dense rows
    /// replaced, as (live-in, live-out) per block.
    fn set_liveness(f: &Function) -> (Vec<BTreeSet<VReg>>, Vec<BTreeSet<VReg>>) {
        let n = f.blocks.len();
        let mut uses = vec![BTreeSet::new(); n];
        let mut defs = vec![BTreeSet::new(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            let (u, d) = (&mut uses[i], &mut defs[i]);
            for inst in &b.insts {
                inst.for_each_use(|r| {
                    if !d.contains(&r) {
                        u.insert(r);
                    }
                });
                inst.for_each_def(|r| {
                    d.insert(r);
                });
            }
            b.term.for_each_use(|r| {
                if !d.contains(&r) {
                    u.insert(r);
                }
            });
        }
        let preds = predecessors(f);
        let mut live_in = vec![BTreeSet::new(); n];
        let mut live_out = vec![BTreeSet::new(); n];
        let mut work: Vec<usize> = (0..n).rev().collect();
        while let Some(b) = work.pop() {
            let mut out = BTreeSet::new();
            f.blocks[b]
                .term
                .for_each_successor(|s| out.extend(live_in[s.0 as usize].iter().copied()));
            let mut inp = uses[b].clone();
            inp.extend(out.iter().filter(|r| !defs[b].contains(r)));
            let changed = inp != live_in[b];
            live_out[b] = out;
            if changed {
                live_in[b] = inp;
                for p in &preds[b] {
                    if !work.contains(&(p.0 as usize)) {
                        work.push(p.0 as usize);
                    }
                }
            }
        }
        (live_in, live_out)
    }

    fn as_set(row: &[u64]) -> BTreeSet<VReg> {
        let mut set = BTreeSet::new();
        bitset::for_each_bit(row, |r| {
            set.insert(VReg(r as u32));
        });
        set
    }

    fn assert_matches_reference(m: &Module, after: &str) {
        for f in &m.funcs {
            let live = liveness(f);
            let (live_in, live_out) = set_liveness(f);
            for b in 0..f.blocks.len() {
                assert_eq!(
                    as_set(live.live_in(b)),
                    live_in[b],
                    "{} bb{b} in, {after}",
                    f.name
                );
                assert_eq!(
                    as_set(live.live_out(b)),
                    live_out[b],
                    "{} bb{b} out, {after}",
                    f.name
                );
            }
        }
    }

    /// `passes::optimize` with the default configuration, one pass at a
    /// time, calling `check` after every pass.
    fn optimize_stepwise(m: &mut Module, check: impl Fn(&Module, &str)) {
        let cfg = passes::OptConfig::default();
        let cleanup = |m: &mut Module| {
            for i in 0..m.funcs.len() {
                for _ in 0..16 {
                    let mut changed = false;
                    for (name, pass) in [
                        ("constfold", constfold::run as fn(&mut Function) -> bool),
                        ("lvn", lvn::run),
                        ("dce", dce::run),
                        ("simplify", simplify::run),
                    ] {
                        changed |= pass(&mut m.funcs[i]);
                        check(m, name);
                    }
                    if !changed {
                        break;
                    }
                }
            }
        };
        inline::run(m, &cfg.inline_cfg);
        inline::drop_dead_funcs(m, &cfg.entry);
        check(m, "inline");
        cleanup(m);
        for (name, pass) in [
            ("ifconv", ifconv::run as fn(&mut Function) -> bool),
            ("licm", licm::run),
            ("unroll", |f| {
                unroll::run(f, &passes::UnrollConfig::default())
            }),
        ] {
            for f in &mut m.funcs {
                pass(f);
            }
            check(m, name);
            cleanup(m);
        }
    }

    /// Dense rows equal the set fixpoint on every function of the 18
    /// kernels, before optimization and after every pass `optimize` runs.
    #[test]
    fn dense_rows_match_the_set_fixpoint_at_every_pass_boundary() {
        for w in asip_workloads::all() {
            // tinyc links this crate's library build, not this test build:
            // its module crosses over through the codec.
            let m = asip_tinyc::compile(&w.source).expect("kernel compiles");
            let mut m = Module::decode_all(&m.encode_to_vec()).expect("decodes");
            assert_matches_reference(&m, "tinyc");
            let mut expected = m.clone();
            passes::optimize(&mut expected, &passes::OptConfig::default());
            optimize_stepwise(&mut m, assert_matches_reference);
            assert_eq!(
                m, expected,
                "{}: the stepwise schedule is optimize's",
                w.name
            );
        }
    }

    /// bb0: v1 = 1; branch v0 ? bb1 : bb2
    /// bb1: emit v1; ret
    /// bb2: ret
    fn diamondish() -> Function {
        let mut f = Function::new("t", 1, false);
        let v1 = f.new_vreg();
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.blocks[0] = Block {
            insts: vec![Inst::Un {
                op: Opcode::Mov,
                dst: v1,
                a: Val::Imm(1),
            }],
            term: Terminator::Branch {
                c: Val::Reg(VReg(0)),
                t: b1,
                f: b2,
            },
        };
        f.block_mut(b1).insts.push(Inst::Emit { val: Val::Reg(v1) });
        f.block_mut(b1).term = Terminator::Ret(None);
        f.block_mut(b2).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn param_live_in_at_entry() {
        let f = diamondish();
        let l = liveness(&f);
        assert!(l.is_live_in(0, VReg(0)), "branch condition is used");
        assert!(!l.is_live_in(0, VReg(1)), "v1 is defined before use");
    }

    #[test]
    fn value_live_across_edge() {
        let f = diamondish();
        let l = liveness(&f);
        assert!(l.is_live_out(0, VReg(1)), "v1 flows to bb1");
        assert!(l.is_live_in(1, VReg(1)));
        assert!(!l.is_live_in(2, VReg(1)), "bb2 never reads v1");
    }

    #[test]
    fn loop_keeps_values_alive() {
        // bb0: v1 = 0; jump bb1
        // bb1: v1 = add v1, 1; branch v0 ? bb1 : bb2
        // bb2: emit v1; ret
        let mut f = Function::new("t", 1, false);
        let v1 = f.new_vreg();
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.blocks[0] = Block {
            insts: vec![Inst::Un {
                op: Opcode::Mov,
                dst: v1,
                a: Val::Imm(0),
            }],
            term: Terminator::Jump(b1),
        };
        f.block_mut(b1).insts.push(Inst::Bin {
            op: Opcode::Add,
            dst: v1,
            a: Val::Reg(v1),
            b: Val::Imm(1),
        });
        f.block_mut(b1).term = Terminator::Branch {
            c: Val::Reg(VReg(0)),
            t: b1,
            f: b2,
        };
        f.block_mut(b2).insts.push(Inst::Emit { val: Val::Reg(v1) });
        f.block_mut(b2).term = Terminator::Ret(None);

        let l = liveness(&f);
        assert!(l.is_live_in(1, v1), "v1 carried around the loop");
        assert!(l.is_live_out(1, v1));
        assert!(l.is_live_in(1, VReg(0)), "loop condition stays live");
        assert!(l.live_out(2).iter().all(|&w| w == 0));
    }
}
