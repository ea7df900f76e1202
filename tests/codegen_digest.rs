//! Byte-for-byte pin of the backend's output.
//!
//! Compiles every preset × every kernel the way `Toolchain::default()`
//! does (optimized, profile-guided), plus a 16-register derivation of each
//! preset with a custom unit after `ise::extend` at budget 32, and folds the
//! `CompiledArtifact` codec bytes into FNV-1a digests. A backend change
//! that claims identical codegen must leave the constants as they are; one
//! that changes codegen on purpose records new ones and says why.
//!
//! A second digest pins `ise::extend` itself: the extended module, the
//! extended machine and the `IseReport` at budgets 8, 16 and 32 on the same
//! 16-register machines, so a faster search must select and rewrite exactly
//! as before.
//!
//! A third digest pins the optimizer: the `Toolchain::frontend` module of
//! every kernel, so a mid-end change that leaves codegen alone still has
//! to keep its output or record a new constant.
//!
//! A fourth digest pins the binary translator: every kernel compiled for
//! `ember4`, translated to every VLIW preset and to the drifted members of
//! the ISA-drift experiment, so a change to how the translator reads a
//! program must emit exactly the same programs and typed errors.

use asip::core::ise::{extend, IseConfig};
use asip::core::{CompiledArtifact, Toolchain};
use asip::dbt::translate_program;
use asip::isa::codec::Codec;
use asip::isa::{Encoding, FuKind, MachineDescription};

/// Digest of the 144 grid artifacts, kernel-major.
const GRID_DIGEST: u64 = 0x5058_bca5_304f_130e;
/// Digest of the ISE-extended 16-register artifacts, kernel-major.
const ISE_DIGEST: u64 = 0xb52c_bacf_7a1a_2182;
/// Digest of `extend`'s outputs (module, machine, report) on the
/// 16-register machines at budgets 8, 16 and 32, kernel-major.
const EXTEND_DIGEST: u64 = 0xdbb7_24c4_f632_8d28;
/// Digest of the 18 optimized modules, kernel-major.
const FRONTEND_DIGEST: u64 = 0x1b24_5a8c_7617_1af1;
/// Digest of the `ember4` programs translated to every VLIW preset and
/// drifted member (program bytes and stats, or the error's message),
/// kernel-major.
const TRANSLATE_DIGEST: u64 = 0x6269_016f_f16a_3b25;

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A 16-register derivation of every preset with a custom unit.
fn r16_machines(presets: &[MachineDescription]) -> Vec<MachineDescription> {
    let r16: Vec<MachineDescription> = presets
        .iter()
        .filter(|m| m.has_fu(FuKind::Custom))
        .map(|m| m.derive(&format!("{}-r16", m.name), |m| m.regs_per_cluster = 16))
        .filter(|m| m.validate().is_ok())
        .collect();
    assert!(!r16.is_empty(), "some preset hosts a custom unit");
    r16
}

#[test]
fn codegen_is_byte_identical_to_the_recorded_digests() {
    let tc = Toolchain::default();
    let presets = MachineDescription::all_presets();
    let r16 = r16_machines(&presets);
    let ise_cfg = IseConfig { area_budget: 32.0 };

    let (mut grid, mut ise) = (Fnv::new(), Fnv::new());
    let mut ise_ops = 0;
    for w in asip::workloads::all() {
        let module = tc.frontend(&w.source).expect("frontend");
        let profile = tc.profile(&module, &w.inputs, &w.args).expect("profile");
        for m in &presets {
            let art = tc
                .compile_for(&module, m, Some(&profile))
                .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, m.name));
            grid.write(&art.encode_to_vec());
        }
        for m in &r16 {
            let mut extended = module.clone();
            let (m2, report) = extend(&mut extended, m, &profile, &ise_cfg);
            ise_ops += report.selected.len();
            let art = tc
                .compile_for(&extended, &m2, Some(&profile))
                .unwrap_or_else(|e| panic!("{} on {} + ISE: {e}", w.name, m.name));
            ise.write(&art.encode_to_vec());
        }
    }
    assert!(ise_ops > 0, "budget 32 selects custom ops somewhere");
    assert_eq!(
        (grid.0, ise.0),
        (GRID_DIGEST, ISE_DIGEST),
        "codegen changed: grid {:016x}, ise {:016x}",
        grid.0,
        ise.0
    );
}

#[test]
fn ise_extend_outputs_are_byte_identical_to_the_recorded_digest() {
    let tc = Toolchain::default();
    let r16 = r16_machines(&MachineDescription::all_presets());
    let mut digest = Fnv::new();
    let mut ise_ops = 0;
    for w in asip::workloads::all() {
        let module = tc.frontend(&w.source).expect("frontend");
        let profile = tc.profile(&module, &w.inputs, &w.args).expect("profile");
        for m in &r16 {
            for area_budget in [8.0, 16.0, 32.0] {
                let mut extended = module.clone();
                let cfg = IseConfig { area_budget };
                let (m2, report) = extend(&mut extended, m, &profile, &cfg);
                ise_ops += report.selected.len();
                digest.write(&extended.encode_to_vec());
                digest.write(&m2.encode_to_vec());
                digest.write(&report.encode_to_vec());
            }
        }
    }
    assert!(
        ise_ops > 0,
        "the budget ladder selects custom ops somewhere"
    );
    assert_eq!(
        digest.0, EXTEND_DIGEST,
        "extend's outputs changed: {:016x}",
        digest.0
    );
}

#[test]
fn optimized_modules_are_byte_identical_to_the_recorded_digest() {
    let tc = Toolchain::default();
    let mut digest = Fnv::new();
    for w in asip::workloads::all() {
        let module = tc.frontend(&w.source).expect("frontend");
        digest.write(&module.encode_to_vec());
    }
    assert_eq!(
        digest.0, FRONTEND_DIGEST,
        "the optimizer's output changed: {:016x}",
        digest.0
    );
}

#[test]
fn translated_programs_are_byte_identical_to_the_recorded_digest() {
    let tc = Toolchain::default();
    let a = MachineDescription::ember4();
    // The VLIW presets, then the drifted members of `exp_isa_drift`
    // (`asip_bench::drift`), restated.
    let mut targets = MachineDescription::presets();
    targets.push(a.derive("drift-narrow2", |m| m.slots.truncate(2)));
    targets.push(a.derive("drift-slowmem", |m| {
        m.lat_mem = 4;
        m.lat_mul = 3;
    }));
    targets.push(a.derive("drift-compact", |m| m.encoding = Encoding::Compact16));

    let mut digest = Fnv::new();
    let (mut translated, mut failed) = (0, 0);
    for w in asip::workloads::all() {
        let module = tc.frontend(&w.source).expect("frontend");
        let profile = tc.profile(&module, &w.inputs, &w.args).expect("profile");
        let prog = match tc.compile_for(&module, &a, Some(&profile)) {
            Ok(CompiledArtifact::Vliw(p)) => p.program,
            other => panic!("{} on {}: {other:?}", w.name, a.name),
        };
        for to in &targets {
            match translate_program(&prog, &a, to) {
                Ok((out, s)) => {
                    translated += 1;
                    digest.write(&out.encode_to_vec());
                    for v in [
                        s.ops_in,
                        s.ops_out,
                        s.bundles_in,
                        s.bundles_out,
                        s.hazards_ordered,
                    ] {
                        digest.write(&(v as u64).to_le_bytes());
                    }
                }
                Err(e) => {
                    failed += 1;
                    digest.write(e.to_string().as_bytes());
                }
            }
        }
    }
    assert_eq!(
        digest.0, TRANSLATE_DIGEST,
        "translation changed: {:016x} ({translated} programs, {failed} errors)",
        digest.0
    );
}
