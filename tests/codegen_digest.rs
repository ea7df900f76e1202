//! Byte-for-byte pin of the backend's output.
//!
//! Compiles every preset × every kernel the way `Toolchain::default()`
//! does (optimized, profile-guided), plus a 16-register derivation of each
//! preset with a custom unit after `ise::extend` at budget 32, and folds the
//! `CompiledArtifact` codec bytes into FNV-1a digests. A backend change
//! that claims identical codegen must leave the constants as they are; one
//! that changes codegen on purpose records new ones and says why.

use asip::core::ise::{extend, IseConfig};
use asip::core::Toolchain;
use asip::isa::codec::Codec;
use asip::isa::{FuKind, MachineDescription};

/// Digest of the 144 grid artifacts, kernel-major.
const GRID_DIGEST: u64 = 0x5058_bca5_304f_130e;
/// Digest of the ISE-extended 16-register artifacts, kernel-major.
const ISE_DIGEST: u64 = 0xb52c_bacf_7a1a_2182;

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

#[test]
fn codegen_is_byte_identical_to_the_recorded_digests() {
    let tc = Toolchain::default();
    let presets = MachineDescription::all_presets();
    let r16: Vec<MachineDescription> = presets
        .iter()
        .filter(|m| m.has_fu(FuKind::Custom))
        .map(|m| m.derive(&format!("{}-r16", m.name), |m| m.regs_per_cluster = 16))
        .filter(|m| m.validate().is_ok())
        .collect();
    assert!(!r16.is_empty(), "some preset hosts a custom unit");
    let ise_cfg = IseConfig {
        area_budget: 32.0,
        ..IseConfig::default()
    };

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
