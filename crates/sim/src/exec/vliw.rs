//! The VLIW issue model: whole bundles under a whole-machine interlock.
//!
//! Timing semantics are the reference model's (see [`crate::reference`]):
//! in-order bundle issue, whole-machine interlock on not-ready source
//! *and* destination registers, VLIW read-before-write within a bundle,
//! stores applied at end of bundle, taken branches paying the machine's
//! penalty. Because the interlock waits on destinations too, at most one
//! write per register is ever in flight, and a result can go to the
//! register file as soon as its op executes: nothing that could read the
//! old value issues before the write lands, and within a bundle the
//! decoded deferral flags keep read-before-write.

use super::{Decoded, Directory, Issue, IssueModel};
use crate::run::{SimError, SimOptions, SimResult};
use asip_isa::encoding::{bundle_bytes, layout};
use asip_isa::{MachineDescription, VliwProgram};

impl IssueModel for VliwProgram {
    /// A bundle is its own issue group.
    type Group = ();
    const HALF_OPEN: () = ();
    const CLOSE: u64 = 0;
    const DEFERS: bool = true;

    fn validate(&self, machine: &MachineDescription) -> Result<(), SimError> {
        VliwProgram::validate(self, machine).map_err(|e| SimError::InvalidProgram(e.to_string()))
    }

    fn directory(&self) -> Directory<'_> {
        Directory {
            functions: &self.functions,
            globals: &self.globals,
            custom_ops: &self.custom_ops,
            entry_func: self.entry_func,
            data_words: self.data_words,
        }
    }

    fn decode(&self, machine: &MachineDescription) -> Decoded {
        let nregs = machine.clusters as usize * machine.regs_per_cluster as usize;
        let width = machine.issue_width();
        let ops = self.bundles.iter().map(|b| b.ops().count().max(1)).sum();
        let size = (self.bundles.len(), ops);
        let mut d = Decoded::new(machine, self.directory(), nregs, width, size);
        let addr = layout(self, machine).bundle_addr;
        for (b, &addr) in self.bundles.iter().zip(&addr) {
            let bytes = bundle_bytes(b, machine, machine.encoding);
            d.push(b.ops().map(|(_, op)| op), addr, bytes, 0);
        }
        debug_assert_eq!((d.pcs.len(), d.ops.len()), size, "tables sized exactly");
        d
    }

    fn reference(
        &self,
        machine: &MachineDescription,
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
        opts: SimOptions,
    ) -> Result<SimResult, SimError> {
        crate::reference::run_vliw_reference(machine, self, inputs, args, opts)
    }

    /// Stall the whole machine until every register the bundle reads or
    /// writes is ready.
    #[inline(always)]
    fn issue(d: &Decoded, t: &mut Issue<()>, ready: &[u64], pc: u32) {
        t.interlock(ready, d.interlock_of(pc));
        t.groups += 1;
    }

    /// The bundle's cycle passes.
    #[inline(always)]
    fn issued(_: &Decoded, t: &mut Issue<()>, _: u32) {
        t.cycle += 1;
    }

    #[inline(always)]
    fn entry(_: &Decoded, _: (), _: u32) -> (bool, u64) {
        (false, 0)
    }
}
