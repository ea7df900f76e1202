//! Property-based tests over the toolchain's core invariants.

use asip::backend::{compile_module, BackendOptions};
use asip::core::{EvalRequest, Session};
use asip::ir::interp::run_module;
use asip::ir::passes::{optimize, OptConfig};
use asip::isa::custom::{CustomOpDef, PatNode, PatRef};
use asip::isa::{ICacheConfig, MachineDescription, Opcode};
use asip::sim::run_program;
use proptest::prelude::*;
use std::sync::OnceLock;

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop::sample::select(vec![
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Sra,
        Opcode::Min,
        Opcode::Max,
        Opcode::Mul,
        Opcode::MulH,
        Opcode::CmpLt,
        Opcode::CmpGeu,
    ])
}

proptest! {
    /// Custom-op datapaths agree with scalar evaluation of the same DAG.
    #[test]
    fn custom_op_eval_matches_scalar(
        a in any::<i32>(),
        b in any::<i32>(),
        op1 in arb_opcode(),
        op2 in arb_opcode(),
    ) {
        let def = CustomOpDef::new(
            "p",
            2,
            vec![
                PatNode { op: op1, a: PatRef::Input(0), b: PatRef::Input(1) },
                PatNode { op: op2, a: PatRef::Node(0), b: PatRef::Input(0) },
            ],
            vec![PatRef::Node(1)],
        ).unwrap();
        let got = def.eval(&[a, b]).unwrap();
        let t = op1.eval2(a, b).unwrap();
        let want = op2.eval2(t, a).unwrap();
        prop_assert_eq!(got, vec![want]);
    }

    /// Compiled arithmetic expressions agree with the interpreter for
    /// arbitrary inputs (mini differential fuzzing over two ALU chains).
    #[test]
    fn compiled_expression_matches_interp(
        x in -10_000i32..10_000,
        y in -10_000i32..10_000,
        k in 1i32..63,
    ) {
        let src = format!(
            "void main(int x, int y) {{
                int a = x * 3 + (y >> 2) - {k};
                int b = (x ^ y) & (x + {k});
                int c = min(a, b) + max(a, b);
                emit(a); emit(b); emit(c);
                if (y != 0) emit(x / y); else emit(0);
            }}"
        );
        let mut module = asip::tinyc::compile(&src).unwrap();
        optimize(&mut module, &OptConfig::default());
        let machine = MachineDescription::ember4();
        let compiled =
            compile_module(&module, &machine, None, &BackendOptions::default()).unwrap();
        let golden = run_module(&module, "main", &[x, y]).unwrap();
        let sim = run_program(&machine, &compiled.program, &[x, y]).unwrap();
        prop_assert_eq!(sim.output, golden.output);
    }

    /// Loop trip counts are respected for arbitrary bounds under unrolling.
    #[test]
    fn unrolled_loops_count_correctly(n in 0i32..200) {
        let src = r#"
            void main(int n) {
                int s = 0;
                int i;
                for (i = 0; i < n; i++) s += i;
                emit(s);
            }
        "#;
        let mut module = asip::tinyc::compile(src).unwrap();
        optimize(&mut module, &OptConfig::with_unroll(8));
        let machine = MachineDescription::ember2();
        let compiled =
            compile_module(&module, &machine, None, &BackendOptions::default()).unwrap();
        let sim = run_program(&machine, &compiled.program, &[n]).unwrap();
        prop_assert_eq!(sim.output, vec![n * (n - 1) / 2]);
    }

    /// The machine-description DSL round-trips randomized valid machines.
    #[test]
    fn machine_dsl_roundtrip(
        regs in 8u16..64,
        lat_mul in 1u32..6,
        lat_mem in 1u32..5,
        extra_alus in 0usize..4,
        gate in any::<bool>(),
    ) {
        use asip::isa::FuKind;
        let mut b = MachineDescription::builder("rand");
        b.registers(regs)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu, FuKind::Mul, FuKind::Custom])
            .lat_mul(lat_mul)
            .lat_mem(lat_mem)
            .gate_idle_slots(gate);
        for _ in 0..extra_alus {
            b.slot(&[FuKind::Alu]);
        }
        let m = b.build().unwrap();
        let text = asip::isa::desc::print_machine(&m);
        let back = asip::isa::desc::parse_machine(&text).unwrap();
        prop_assert!(asip::isa::desc::same_architecture(&m, &back));
    }

    /// Any machine table evaluates to a result or a typed error, never a
    /// panic, and a table `validate()` rejects never evaluates: the
    /// cluster count, data memory and I-cache geometry vary on a VLIW, a
    /// scalar and a clustered preset, with and without an ISE budget.
    #[test]
    fn machine_tables_evaluate_or_fail_typed(
        base in prop::sample::select(vec![
            MachineDescription::ember4(),
            MachineDescription::scalar2(),
            MachineDescription::ember4x2(),
        ]),
        clusters in prop::sample::select(vec![0u8, 1, 2, 3, 5]),
        dmem_words in prop::sample::select(vec![0u32, 16, 4096, 1 << 20]),
        icache in arb_icache(),
        ise_budget in prop::sample::select(vec![0.0, 16.0]),
    ) {
        let mut m = base;
        m.clusters = clusters;
        m.dmem_words = dmem_words;
        m.icache = icache;
        let crc = asip::workloads::by_name("crc32").unwrap();
        let req = EvalRequest::new(crc, m.clone()).with_ise(ise_budget);
        let out = shared_session().eval(&req);
        if let Err(reason) = m.validate() {
            let err = out.result.expect_err("a table validate() rejects never evaluates");
            prop_assert!(err.to_string().contains(&reason.to_string()), "{err}");
        }
    }
}

/// I-cache geometries: none, the default, and six that are not
/// realizable (a zero or non-power-of-two size, fewer lines than ways).
fn arb_icache() -> impl Strategy<Value = Option<ICacheConfig>> {
    let geometry = |size_bytes, line_bytes, ways| {
        Some(ICacheConfig {
            size_bytes,
            line_bytes,
            ways,
            miss_penalty: 10,
        })
    };
    prop::sample::select(vec![
        None,
        geometry(8192, 32, 2),
        geometry(8192, 0, 2),
        geometry(0, 32, 2),
        geometry(8192, 24, 2),
        geometry(3000, 32, 2),
        geometry(32, 32, 2),
    ])
}

/// One session for every case, so the front half runs once.
fn shared_session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| Session::builder().threads(1).build())
}
