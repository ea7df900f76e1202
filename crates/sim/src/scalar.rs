//! The in-order scalar pipeline model (classic 5-stage RISC, 1- or 2-issue).
//!
//! This is the measured counterpart of the paper's §2.2 "mass-market
//! compatible" baseline: it executes a linear [`ScalarProgram`] — the
//! binary never encodes an issue width — and models the timing of an
//! in-order pipeline:
//!
//! * **Issue**: up to `issue_width` (capped at 2) instructions per cycle;
//!   a group issues only if its instructions can be assigned to *distinct*
//!   slots of the machine's slot table (the table is the dynamic pairing
//!   rule), and a control transfer always ends its issue group.
//! * **Data hazards**: a scoreboard holds each register's ready cycle.
//!   With [`forwarding`] a consumer issues `latency` cycles after its
//!   producer (back-to-back ALU ops are free; a load with `lat_mem = 2`
//!   costs one load-use bubble); without forwarding results take one extra
//!   cycle through the register file.
//! * **Control**: taken branches pay the machine's `branch_penalty`
//!   (fall-through is free — a static not-taken front end).
//! * **Fetch**: the same LRU set-associative [`ICache`] model as the VLIW
//!   simulator, charged per instruction under the machine's encoding.
//!
//! Architectural state updates sequentially in program order, so results
//! are always exactly the IR interpreter's — schedule or pairing mistakes
//! can only cost cycles, never correctness (the same invariant the VLIW
//! simulator keeps via interlocks).
//!
//! [`ScalarSimulator`] is the one [`Simulator`] instantiated for a
//! [`ScalarProgram`]: [`Simulator::new`] prepares the program for the
//! engine [`SimOptions::engine`] names — the block engine
//! ([`crate::block`]) by default, with this module's model as its issue
//! model, or the original interpretive loop ([`crate::reference`]), kept
//! as the differential oracle.
//!
//! [`forwarding`]: asip_isa::MachineDescription::forwarding
//! [`ICache`]: crate::ICache

use crate::run::{SimError, SimOptions, SimResult, Simulator};
use asip_isa::{MachineDescription, ScalarProgram};

/// The scalar simulator: a [`Simulator`] over a [`ScalarProgram`].
pub type ScalarSimulator = Simulator<ScalarProgram>;

/// Whether the instructions already in an issue group (`kinds`) plus one
/// more of kind `extra` can all be assigned to *distinct* slots of the
/// machine's slot table — the dynamic pairing rule of the in-order front
/// end. Solved as a tiny bipartite matching (groups hold at most two
/// instructions, so this is a couple of probes, not a search). The decoded
/// tables evaluate this once per adjacent instruction pair at decode time;
/// the reference loop still calls it per issued instruction.
pub(crate) fn group_fits(
    slots: &[asip_isa::Slot],
    kinds: &[asip_isa::FuKind],
    extra: asip_isa::FuKind,
) -> bool {
    fn assign(
        slots: &[asip_isa::Slot],
        kinds: &[asip_isa::FuKind],
        extra: asip_isa::FuKind,
        used: &mut [bool],
    ) -> bool {
        let (k, rest_extra) = match kinds.split_first() {
            Some((&k, rest)) => (k, Some((rest, extra))),
            None => (extra, None),
        };
        for (i, s) in slots.iter().enumerate() {
            if used[i] || !s.hosts(k) {
                continue;
            }
            used[i] = true;
            let ok = match rest_extra {
                Some((rest, ex)) => assign(slots, rest, ex, used),
                None => true,
            };
            if ok {
                return true;
            }
            used[i] = false;
        }
        false
    }
    let mut used = [false; 8];
    if slots.len() > used.len() {
        return true; // wider-than-modeled tables never constrain pairing
    }
    assign(slots, kinds, extra, &mut used[..slots.len()])
}

/// One-call convenience: simulate `program` on the scalar pipeline of
/// `machine` with `args`.
///
/// # Errors
///
/// Any [`SimError`].
pub fn run_scalar_program(
    machine: &MachineDescription,
    program: &ScalarProgram,
    args: &[i32],
) -> Result<SimResult, SimError> {
    ScalarSimulator::new(machine, program, SimOptions::default())?.run(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_backend::{compile_module_scalar, BackendOptions};

    fn compile(src: &str, m: &MachineDescription) -> ScalarProgram {
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        compile_module_scalar(&module, m, None, &BackendOptions::default())
            .unwrap()
            .program
    }

    #[test]
    fn arithmetic_matches_interpreter() {
        let src = r#"
            void main(int a, int b) {
                emit(a * b + (a ^ b));
                emit(a / (b + 7));
                emit(min(a, b) - max(a, b));
            }
        "#;
        let m = MachineDescription::scalar1();
        let prog = compile(src, &m);
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        for args in [[9, 4], [-3, 100], [0, 0]] {
            let golden = asip_ir::interp::run_module(&module, "main", &args).unwrap();
            let sim = run_scalar_program(&m, &prog, &args).unwrap();
            assert_eq!(sim.output, golden.output, "args {args:?}");
        }
    }

    #[test]
    fn dual_issue_is_no_slower_and_usually_faster() {
        let src = r#"
            void main(int a, int b, int c, int d) {
                emit((a + b) + (c + d) + (a - b) + (c - d) + (a ^ c) + (b | d));
            }
        "#;
        let s1 = MachineDescription::scalar1();
        let s2 = MachineDescription::scalar2();
        let p = compile(src, &s1); // binary-compatible: one stream
        let args = [3, 5, 7, 11];
        let c1 = run_scalar_program(&s1, &p, &args).unwrap();
        let c2 = run_scalar_program(&s2, &p, &args).unwrap();
        assert_eq!(c1.output, c2.output);
        assert!(
            c2.cycles < c1.cycles,
            "dual issue must help on parallel ALU code: {} vs {}",
            c2.cycles,
            c1.cycles
        );
    }

    #[test]
    fn load_use_and_forwarding_stalls_show_up() {
        let src = r#"
            int t[4] = {10, 20, 30, 40};
            void main() { emit(t[0] + t[1] + t[2] + t[3]); }
        "#;
        let base = MachineDescription::scalar1();
        let slow = base.derive("slowmem", |m| m.lat_mem = 4);
        let nofwd = base.derive("nofwd", |m| m.forwarding = false);
        let p = compile(src, &base);
        let r_base = run_scalar_program(&base, &p, &[]).unwrap();
        let r_slow = run_scalar_program(&slow, &p, &[]).unwrap();
        let r_nofwd = run_scalar_program(&nofwd, &p, &[]).unwrap();
        assert_eq!(r_base.output, vec![100]);
        assert_eq!(r_slow.output, vec![100]);
        assert!(
            r_slow.interlock_stalls > r_base.interlock_stalls,
            "longer load-use latency must stall more: {} vs {}",
            r_slow.interlock_stalls,
            r_base.interlock_stalls
        );
        assert!(
            r_nofwd.cycles > r_base.cycles,
            "removing the bypass network must cost cycles: {} vs {}",
            r_nofwd.cycles,
            r_base.cycles
        );
    }

    #[test]
    fn taken_branches_pay_the_penalty() {
        let src = r#"
            void main(int n) {
                int i; int s = 0;
                for (i = 0; i < n; i++) s += i;
                emit(s);
            }
        "#;
        let cheap = MachineDescription::scalar1().derive("bp0", |m| m.branch_penalty = 0);
        let dear = MachineDescription::scalar1().derive("bp4", |m| m.branch_penalty = 4);
        let p = compile(src, &cheap);
        let r_cheap = run_scalar_program(&cheap, &p, &[50]).unwrap();
        let r_dear = run_scalar_program(&dear, &p, &[50]).unwrap();
        assert_eq!(r_cheap.output, r_dear.output);
        assert!(r_dear.branch_stalls > r_cheap.branch_stalls);
        assert!(r_dear.cycles > r_cheap.cycles);
    }

    #[test]
    fn pairing_respects_the_slot_table() {
        use asip_isa::FuKind::{Alu, Branch, Custom, Mem, Mul};
        let m = MachineDescription::scalar2();
        // Pairs with a valid distinct-slot assignment…
        assert!(group_fits(&m.slots, &[], Branch));
        assert!(group_fits(&m.slots, &[Mem], Alu));
        assert!(group_fits(&m.slots, &[Alu], Mul));
        // …including when the first op could have hogged the other's only
        // slot (the matcher backtracks).
        assert!(group_fits(&m.slots, &[Alu], Mem));
        // Impossible pairings: both kinds live in the same single slot.
        assert!(!group_fits(&m.slots, &[Mem], Branch));
        assert!(!group_fits(&m.slots, &[Mul], Custom));
        // scalar1 never pairs anything: one slot.
        let s1 = MachineDescription::scalar1();
        assert!(!group_fits(&s1.slots, &[Alu], Alu));
    }

    #[test]
    fn errors_match_vliw_simulator_shapes() {
        let m = MachineDescription::scalar1();
        let p = compile("void main(int x) { emit(100 / x); }", &m);
        let err = run_scalar_program(&m, &p, &[0]).unwrap_err();
        assert!(matches!(err, SimError::DivideByZero { .. }));
        let err = run_scalar_program(&m, &p, &[]).unwrap_err();
        assert!(matches!(err, SimError::BadArgs { .. }));
        let ok = run_scalar_program(&m, &p, &[5]).unwrap();
        assert_eq!(ok.output, vec![20]);
        assert!(ok.ipc() > 0.0);
    }

    #[test]
    fn icache_misses_charged_on_small_caches() {
        let src = r#"
            void main(int n) {
                int i; int s = 0;
                for (i = 0; i < n; i++) { s += i * 3; s ^= i; }
                emit(s);
            }
        "#;
        let tiny = MachineDescription::scalar1().derive("tinyic", |m| {
            m.icache = Some(asip_isa::ICacheConfig {
                size_bytes: 64,
                line_bytes: 16,
                ways: 1,
                miss_penalty: 20,
            });
        });
        let p = compile(src, &tiny);
        let r = run_scalar_program(&tiny, &p, &[40]).unwrap();
        assert!(r.icache_misses > 0);
        assert!(r.icache_stalls >= r.icache_misses * 20);
    }

    /// Decode once, run many: repeated runs of one `ScalarSimulator` are
    /// identical (each starts from a fresh memory image).
    #[test]
    fn repeated_runs_are_identical() {
        let src = r#"
            int t[4] = {1, 2, 3, 4};
            void main(int n) { t[0] += n; emit(t[0] + t[3]); }
        "#;
        let m = MachineDescription::scalar2();
        let p = compile(src, &m);
        let sim = ScalarSimulator::new(&m, &p, SimOptions::default()).unwrap();
        let a = sim.run(&[10]).unwrap();
        let b = sim.run(&[10]).unwrap();
        assert_eq!(a, b, "state must not leak between runs");
        assert_eq!(a.output, vec![15]);
    }
}
