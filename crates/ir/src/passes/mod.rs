//! The optimization pipeline.
//!
//! Classic mid-90s ILP compiler schedule: inline, clean, if-convert, hoist,
//! unroll, then clean again. Every pass is independently testable;
//! [`optimize`] iterates cleanup passes to a (bounded) fixpoint, skips a pass
//! while the function is unchanged since that pass last changed nothing,
//! and records one `ir` span per pass run.

pub mod constfold;
pub mod dce;
pub mod ifconv;
pub mod inline;
pub mod licm;
pub mod lvn;
pub mod simplify;
pub mod unroll;

use crate::func::{Function, Module};

pub use inline::InlineConfig;
pub use unroll::UnrollConfig;

/// Optimization pipeline configuration.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Run function inlining.
    pub inline: bool,
    /// Inliner limits.
    pub inline_cfg: InlineConfig,
    /// Run if-conversion.
    pub if_convert: bool,
    /// Run loop-invariant code motion.
    pub licm: bool,
    /// Loop-unrolling configuration (`factor <= 1` disables).
    pub unroll: UnrollConfig,
    /// Remove functions unreachable from the entry.
    pub drop_dead_funcs: bool,
    /// Entry function name (for dead-function removal).
    pub entry: String,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            inline: true,
            inline_cfg: InlineConfig::default(),
            if_convert: true,
            licm: true,
            unroll: UnrollConfig::default(),
            drop_dead_funcs: true,
            entry: "main".to_string(),
        }
    }
}

impl OptConfig {
    /// A configuration with every optimization disabled (the `-O0` baseline
    /// used by ablation experiments).
    pub fn none() -> OptConfig {
        OptConfig {
            inline: false,
            inline_cfg: InlineConfig::default(),
            if_convert: false,
            licm: false,
            unroll: UnrollConfig {
                factor: 1,
                ..Default::default()
            },
            drop_dead_funcs: false,
            entry: "main".to_string(),
        }
    }

    /// Standard configuration with a specific unroll factor.
    pub fn with_unroll(factor: u32) -> OptConfig {
        OptConfig {
            unroll: UnrollConfig {
                factor,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// A function pass: returns whether it changed the function.
type Pass = fn(&mut Function) -> bool;

/// The cleanup passes, in the order each round runs them.
const CLEANUP: [(&str, Pass); 4] = [
    ("constfold", constfold::run),
    ("lvn", lvn::run),
    ("dce", dce::run),
    ("simplify", simplify::run),
];

/// Which [`CLEANUP`] passes are at their fixpoint on one function: bit `p`
/// is set while pass `p`'s last run changed nothing and no pass has changed
/// the function since, so running it again would change nothing either.
type Fixpoints = u8;

/// Run the cleanup trio (fold, value-number, eliminate) plus CFG
/// simplification to a bounded fixpoint on every function.
pub fn cleanup(module: &mut Module) {
    let mut fixed = vec![0; module.funcs.len()];
    cleanup_tracked(module, &mut fixed);
}

/// [`cleanup`], skipping each pass its function's [`Fixpoints`] mark as
/// done. Records an `ir`/`cleanup` span whose detail is the rounds run.
fn cleanup_tracked(module: &mut Module, fixed: &mut [Fixpoints]) {
    let mut span = asip_obs::span("ir", "cleanup");
    let mut rounds = 0;
    for (f, fixed) in module.funcs.iter_mut().zip(fixed) {
        for _ in 0..16 {
            if *fixed == (1 << CLEANUP.len()) - 1 {
                break;
            }
            rounds += 1;
            let mut changed = false;
            for (p, (name, pass)) in CLEANUP.iter().enumerate() {
                if *fixed & (1 << p) != 0 {
                    continue;
                }
                let _span = asip_obs::span("ir", name);
                if pass(f) {
                    changed = true;
                    *fixed = 0;
                } else {
                    *fixed |= 1 << p;
                }
            }
            if !changed {
                break;
            }
        }
    }
    if span.is_recording() {
        span.detail(format!("{rounds} rounds"));
    }
}

/// Run `pass` on every function under an `ir` span, forgetting the
/// cleanup fixpoints of each function it changes.
fn per_function(
    module: &mut Module,
    fixed: &mut [Fixpoints],
    name: &'static str,
    mut pass: impl FnMut(&mut Function) -> bool,
) {
    let _span = asip_obs::span("ir", name);
    for (f, fixed) in module.funcs.iter_mut().zip(fixed) {
        if pass(f) {
            *fixed = 0;
        }
    }
}

/// Run the full pipeline.
pub fn optimize(module: &mut Module, cfg: &OptConfig) {
    if cfg.inline {
        let _span = asip_obs::span("ir", "inline");
        inline::run(module, &cfg.inline_cfg);
        if cfg.drop_dead_funcs {
            inline::drop_dead_funcs(module, &cfg.entry);
        }
    }
    let mut fixed = vec![0; module.funcs.len()];
    cleanup_tracked(module, &mut fixed);
    if cfg.if_convert {
        per_function(module, &mut fixed, "ifconv", ifconv::run);
        cleanup_tracked(module, &mut fixed);
    }
    if cfg.licm {
        per_function(module, &mut fixed, "licm", licm::run);
        cleanup_tracked(module, &mut fixed);
    }
    if cfg.unroll.factor > 1 {
        per_function(module, &mut fixed, "unroll", |f| {
            unroll::run(f, &cfg.unroll)
        });
        cleanup_tracked(module, &mut fixed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, Function};
    use crate::inst::{FuncId, Inst, Terminator, VReg, Val};
    use crate::interp::run_module;
    use asip_isa::Opcode;

    /// A program exercising calls, branches and loops:
    /// clamp(x) = x < 0 ? 0 : (x > 255 ? 255 : x)
    /// main(n): s = 0; for i in 0..n { s += clamp(i * 7 - 100) }; emit s
    fn program() -> Module {
        let mut clamp = Function::new("clamp", 1, true);
        let c1 = clamp.new_vreg();
        let c2 = clamp.new_vreg();
        let r = clamp.new_vreg();
        clamp.blocks[0] = Block {
            insts: vec![
                Inst::Bin {
                    op: Opcode::CmpLt,
                    dst: c1,
                    a: Val::Reg(VReg(0)),
                    b: Val::Imm(0),
                },
                Inst::Bin {
                    op: Opcode::CmpGt,
                    dst: c2,
                    a: Val::Reg(VReg(0)),
                    b: Val::Imm(255),
                },
                Inst::Select {
                    dst: r,
                    c: Val::Reg(c2),
                    a: Val::Imm(255),
                    b: Val::Reg(VReg(0)),
                },
                Inst::Select {
                    dst: r,
                    c: Val::Reg(c1),
                    a: Val::Imm(0),
                    b: Val::Reg(r),
                },
            ],
            term: Terminator::Ret(Some(Val::Reg(r))),
        };

        let mut main = Function::new("main", 1, false);
        let s = main.new_vreg();
        let i = main.new_vreg();
        let cond = main.new_vreg();
        let t = main.new_vreg();
        let cl = main.new_vreg();
        let header = main.new_block();
        let body = main.new_block();
        let exit = main.new_block();
        main.blocks[0].insts.extend([
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
        main.blocks[0].term = Terminator::Jump(header);
        main.block_mut(header).insts.push(Inst::Bin {
            op: Opcode::CmpLt,
            dst: cond,
            a: Val::Reg(i),
            b: Val::Reg(VReg(0)),
        });
        main.block_mut(header).term = Terminator::Branch {
            c: Val::Reg(cond),
            t: body,
            f: exit,
        };
        main.block_mut(body).insts.extend([
            Inst::Bin {
                op: Opcode::Mul,
                dst: t,
                a: Val::Reg(i),
                b: Val::Imm(7),
            },
            Inst::Bin {
                op: Opcode::Sub,
                dst: t,
                a: Val::Reg(t),
                b: Val::Imm(100),
            },
            Inst::Call {
                dst: Some(cl),
                func: FuncId(1),
                args: vec![Val::Reg(t)],
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: s,
                a: Val::Reg(s),
                b: Val::Reg(cl),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: i,
                a: Val::Reg(i),
                b: Val::Imm(1),
            },
        ]);
        main.block_mut(body).term = Terminator::Jump(header);
        main.block_mut(exit)
            .insts
            .push(Inst::Emit { val: Val::Reg(s) });
        main.block_mut(exit).term = Terminator::Ret(None);
        Module {
            funcs: vec![main, clamp],
            globals: vec![],
            custom_ops: vec![],
        }
    }

    #[test]
    fn full_pipeline_preserves_semantics() {
        let m0 = program();
        for cfg in [
            OptConfig::none(),
            OptConfig::default(),
            OptConfig::with_unroll(8),
        ] {
            let mut m1 = m0.clone();
            optimize(&mut m1, &cfg);
            assert_eq!(crate::func::verify(&m1), Ok(()));
            for n in [0, 1, 5, 33, 64] {
                let r0 = run_module(&m0, "main", &[n]).unwrap();
                let r1 = run_module(&m1, "main", &[n]).unwrap();
                assert_eq!(r0.output, r1.output, "cfg={cfg:?} n={n}");
            }
        }
    }

    #[test]
    fn pipeline_inlines_the_call() {
        let mut m = program();
        optimize(&mut m, &OptConfig::default());
        assert!(m.funcs[0]
            .blocks
            .iter()
            .all(|b| !b.insts.iter().any(|i| matches!(i, Inst::Call { .. }))));
        // Dead clamp removed.
        assert_eq!(m.funcs.len(), 1);
    }

    #[test]
    fn optimized_code_is_smaller_or_equal_dynamic_steps() {
        let m0 = program();
        let mut m1 = m0.clone();
        optimize(&mut m1, &OptConfig::default());
        let s0 = run_module(&m0, "main", &[50]).unwrap().steps;
        let s1 = run_module(&m1, "main", &[50]).unwrap().steps;
        assert!(
            s1 <= s0,
            "optimization should not add dynamic work ({s1} > {s0})"
        );
    }
}
