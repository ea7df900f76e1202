//! The scalar issue model: 1–2-wide in-order issue groups.
//!
//! Timing semantics are the reference model's (see [`crate::reference`]
//! and the module docs of [`crate::scalar`]): the slot table as the
//! dynamic pairing rule, a per-register ready-time scoreboard with
//! forwarding/+1-no-bypass (the no-forwarding penalty is baked into each
//! op's latency), load-use and taken-branch stalls, and sequential
//! architectural state. The **dual-issue pairing check** moved to decode
//! time: an issue group of an in-order 2-wide front end only ever holds
//! the dynamically previous instruction, which on a fall-through is the
//! one at `pc - 1` — so the bipartite slot matching collapses to one
//! precomputed `pair_with_prev` bit per adjacent instruction pair.

use super::{Decoded, Directory, Issue, IssueModel};
use crate::run::{SimError, SimOptions, SimResult};
use crate::scalar::group_fits;
use asip_isa::scalar::scalar_inst_bytes;
use asip_isa::{MachineDescription, ScalarProgram};

/// The open issue group: how many instructions it holds, and whether a
/// control op sealed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Group {
    len: u64,
    closed: bool,
}

impl IssueModel for ScalarProgram {
    type Group = Group;
    /// A group holding the block's fall-through predecessor.
    const HALF_OPEN: Group = Group {
        len: 1,
        closed: false,
    };
    const CLOSE: u64 = 1;
    const DEFERS: bool = false;

    fn validate(&self, machine: &MachineDescription) -> Result<(), SimError> {
        ScalarProgram::validate(self, machine).map_err(|e| SimError::InvalidProgram(e.to_string()))
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
        let regs_per = machine.regs_per_cluster as usize;
        let width = machine.issue_width().clamp(1, 2);
        let n = self.insts.len();
        let mut d = Decoded::new(machine, self.directory(), regs_per, width, (n, n));
        let addr = self.layout(machine.encoding).inst_addr;
        // Without bypass, results take one more cycle through the
        // register file before a consumer can issue.
        let fwd_extra = u32::from(!machine.forwarding);
        let mut prev = None;
        for (op, &addr) in self.insts.iter().zip(&addr) {
            let bytes = scalar_inst_bytes(op, machine.encoding);
            let meta = d.push([op], addr, bytes, fwd_extra);
            let kind = op.opcode.fu_kind();
            meta.pair_with_prev = prev.is_some_and(|p| group_fits(&machine.slots, &[p], kind));
            meta.seals = op.opcode.is_control();
            prev = Some(kind);
        }
        d
    }

    fn reference(
        &self,
        machine: &MachineDescription,
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
        opts: SimOptions,
    ) -> Result<SimResult, SimError> {
        crate::reference::run_scalar_reference(machine, self, inputs, args, opts)
    }

    /// Open a new group when the current one is full, sealed, or has no
    /// distinct-slot assignment for this instruction, then again after any
    /// data-hazard stall; a control op never shares a group with a later
    /// instruction.
    #[inline(always)]
    fn issue(d: &Decoded, t: &mut Issue<Group>, ready: &[u64], pc: u32) {
        let g = t.group;
        if g.len >= d.width || g.closed || (g.len == 1 && !d.pcs[pc as usize].pair_with_prev) {
            t.cycle += 1;
            t.group = Group::default();
        }
        if t.interlock(ready, d.interlock_of(pc)) {
            t.group = Group::default();
        }
        t.group.len += 1;
        t.groups += u64::from(t.group.len == 1);
    }

    /// A control op seals its group.
    #[inline(always)]
    fn issued(d: &Decoded, t: &mut Issue<Group>, pc: u32) {
        t.group.closed |= d.pcs[pc as usize].seals;
    }

    /// A full or sealed group forces a structural break before the first
    /// instruction, as does a one-instruction group the first instruction
    /// cannot pair with: exactly the empty-group variant one cycle later.
    #[inline(always)]
    fn entry(d: &Decoded, g: Group, pc: u32) -> (bool, u64) {
        if g.len == 0 {
            (false, 0)
        } else if g.len == 1 && !g.closed && g.len < d.width && d.pcs[pc as usize].pair_with_prev {
            (true, 0)
        } else {
            (false, 1)
        }
    }
}
