//! Instruction encoding as a code-size model.
//!
//! The model answers "how many bytes does this program occupy in the ROM /
//! I-cache" for each of the three encoding schemes of [`Encoding`]: that
//! drives the paper's "visible instruction compression" experiment (§1.2)
//! and the I-cache simulation. The byte format of machine code, which the
//! artifact cache stores and the wire carries, is [`crate::codec`].

use crate::code::{Bundle, MachineOp, VliwProgram};
use crate::machine::{Encoding, MachineDescription};
use crate::op::Opcode;
use crate::reg::{Operand, Reg};

/// Whether an operation fits the 16-bit compact form of
/// [`Encoding::Compact16`]: at most two register operands from the first
/// eight registers of cluster 0, a single low-register destination, no
/// branch target, and any immediate in `-16..=15`.
pub fn compact_eligible(op: &MachineOp) -> bool {
    if op.opcode.has_target() || matches!(op.opcode, Opcode::Custom(_)) {
        return false;
    }
    if op.srcs.len() > 2 || op.dsts.len() > 1 {
        return false;
    }
    let low = |r: Reg| r.cluster == 0 && r.index < 8;
    if !op.dsts.iter().all(|&d| low(d)) {
        return false;
    }
    for s in &op.srcs {
        match s {
            Operand::Reg(r) => {
                if !low(*r) {
                    return false;
                }
            }
            Operand::Imm(v) => {
                if !(-16..=15).contains(v) {
                    return false;
                }
            }
        }
    }
    (-16..=15).contains(&op.imm)
}

/// Encoded size in bytes of one bundle under `enc` on machine `m`.
pub fn bundle_bytes(bundle: &Bundle, m: &MachineDescription, enc: Encoding) -> u32 {
    match enc {
        Encoding::Uncompressed => 4 * m.issue_width() as u32,
        Encoding::StopBit => 4 * bundle.occupancy().max(1) as u32,
        Encoding::Compact16 => {
            let mut bytes = 0u32;
            for (_, op) in bundle.ops() {
                bytes += if compact_eligible(op) { 2 } else { 4 };
            }
            // Empty bundles still need a syllable; odd totals pad to 32-bit
            // fetch alignment.
            bytes = bytes.max(2);
            (bytes + 3) & !3
        }
    }
}

/// Byte layout of a program in instruction memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeLayout {
    /// Byte address of each bundle, in program order.
    pub bundle_addr: Vec<u32>,
    /// Total code bytes.
    pub total_bytes: u32,
}

/// Compute the byte layout of `prog` under the machine's encoding.
pub fn layout(prog: &VliwProgram, m: &MachineDescription) -> CodeLayout {
    let mut addr = 0u32;
    let mut bundle_addr = Vec::with_capacity(prog.bundles.len());
    for b in &prog.bundles {
        bundle_addr.push(addr);
        addr += bundle_bytes(b, m, m.encoding);
    }
    CodeLayout {
        bundle_addr,
        total_bytes: addr,
    }
}

/// Code size in bytes of `prog` under a specific scheme (not necessarily the
/// machine's own), for side-by-side compression comparisons.
pub fn code_bytes(prog: &VliwProgram, m: &MachineDescription, enc: Encoding) -> u32 {
    prog.bundles.iter().map(|b| bundle_bytes(b, m, enc)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDescription;

    #[test]
    fn size_model_orders_schemes() {
        let m = MachineDescription::ember4();
        // A half-empty bundle.
        let mut b = Bundle::empty(4);
        b.slots[0] = Some(MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 1)],
            vec![Operand::Reg(Reg::new(0, 2)), Operand::Imm(3)],
        ));
        b.slots[1] = Some(MachineOp::new(
            Opcode::Xor,
            vec![Reg::new(0, 2)],
            vec![Operand::Reg(Reg::new(0, 2)), Operand::Reg(Reg::new(0, 3))],
        ));
        let unc = bundle_bytes(&b, &m, Encoding::Uncompressed);
        let stop = bundle_bytes(&b, &m, Encoding::StopBit);
        let cmp = bundle_bytes(&b, &m, Encoding::Compact16);
        assert_eq!(unc, 16);
        assert_eq!(stop, 8);
        assert_eq!(cmp, 4, "two compact ops pack into one word");
        assert!(cmp <= stop && stop <= unc);
    }

    #[test]
    fn compact_eligibility_rules() {
        let ok = MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 1)],
            vec![Operand::Reg(Reg::new(0, 2)), Operand::Imm(3)],
        );
        assert!(compact_eligible(&ok));
        let high_reg = MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 9)],
            vec![Operand::Reg(Reg::new(0, 2)), Operand::Imm(3)],
        );
        assert!(!compact_eligible(&high_reg));
        let big_imm = MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 1)],
            vec![Operand::Reg(Reg::new(0, 2)), Operand::Imm(300)],
        );
        assert!(!compact_eligible(&big_imm));
        let mut br = MachineOp::new(Opcode::Br, vec![], vec![]);
        br.target = 3;
        assert!(!compact_eligible(&br));
    }

    #[test]
    fn layout_addresses_are_monotone() {
        let m = MachineDescription::ember2();
        let mut b = Bundle::empty(2);
        b.slots[0] = Some(MachineOp::new(Opcode::Halt, vec![], vec![]));
        let prog = VliwProgram {
            bundles: vec![b.clone(), Bundle::empty(2), b],
            ..Default::default()
        };
        let l = layout(&prog, &m);
        assert_eq!(l.bundle_addr.len(), 3);
        assert!(l.bundle_addr.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(l.total_bytes, code_bytes(&prog, &m, m.encoding));
    }
}
