//! The unoptimized IR interpreter as the optimizer's oracle, pass by pass.
//!
//! Every kernel's `asip_tinyc::compile` module is interpreted as written,
//! then again after each optimization pass run alone on a fresh copy, after
//! one `cleanup` and after the full `optimize` pipeline. Every transformed
//! module must verify and reproduce the untransformed run's emitted values,
//! return value and final static data, so a miscompile is pinned to the one
//! pass that introduced it rather than to the pipeline as a whole.

use asip::ir::func::{verify, Module};
use asip::ir::interp::{Interp, InterpOptions, InterpResult};
use asip::ir::passes::{
    self, constfold, dce, ifconv, inline, licm, lvn, simplify, unroll, InlineConfig, OptConfig,
    UnrollConfig,
};
use asip::ir::Function;
use asip::workloads::{self, Workload};

fn interpret(m: &Module, w: &Workload) -> InterpResult {
    let mut interp = Interp::new(m, InterpOptions::default());
    for (name, data) in &w.inputs {
        assert!(
            interp.write_global(name, data),
            "{}: no global {name}",
            w.name
        );
    }
    interp
        .run("main", &w.args)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// One transformation under test, applied to a fresh copy of a module.
type Transform = Box<dyn Fn(&mut Module)>;

fn per_func(pass: fn(&mut Function) -> bool) -> impl Fn(&mut Module) {
    move |m| {
        for f in &mut m.funcs {
            pass(f);
        }
    }
}

#[test]
fn each_pass_alone_preserves_every_kernel_run() {
    let unroll_cfg = UnrollConfig::default();
    let checks: Vec<(&str, Transform)> = vec![
        (
            "inline",
            Box::new(|m| {
                inline::run(m, &InlineConfig::default());
            }),
        ),
        ("constfold", Box::new(per_func(constfold::run))),
        ("lvn", Box::new(per_func(lvn::run))),
        ("dce", Box::new(per_func(dce::run))),
        ("simplify", Box::new(per_func(simplify::run))),
        ("ifconv", Box::new(per_func(ifconv::run))),
        ("licm", Box::new(per_func(licm::run))),
        (
            "unroll",
            Box::new(move |m| {
                for f in &mut m.funcs {
                    unroll::run(f, &unroll_cfg);
                }
            }),
        ),
        ("cleanup", Box::new(passes::cleanup)),
        (
            "optimize",
            Box::new(|m| passes::optimize(m, &OptConfig::default())),
        ),
    ];

    let mut runs = 0;
    for w in workloads::all() {
        let m0 = asip::tinyc::compile(&w.source).expect("kernel compiles");
        let r0 = interpret(&m0, &w);
        assert_eq!(r0.output, w.expected, "{}: unoptimized run", w.name);
        for (name, pass) in &checks {
            let mut m = m0.clone();
            pass(&mut m);
            assert_eq!(verify(&m), Ok(()), "{} after {name}", w.name);
            let r = interpret(&m, &w);
            assert_eq!(r.output, r0.output, "{}: output after {name}", w.name);
            assert_eq!(r.ret, r0.ret, "{}: return value after {name}", w.name);
            assert_eq!(r.memory, r0.memory, "{}: static data after {name}", w.name);
            runs += 1;
        }
    }
    assert_eq!(runs, 18 * checks.len(), "every kernel runs every check");
}
