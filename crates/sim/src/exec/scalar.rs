//! The decoded scalar tables: flat operands, baked latencies, fetch
//! geometry and a precomputed adjacent-pair dual-issue bit per
//! instruction.
//!
//! Timing semantics are the reference model's (see [`crate::reference`]
//! and the module docs of [`crate::scalar`]): 1–2-wide in-order issue,
//! the slot table as the dynamic pairing rule, a per-register ready-time
//! scoreboard with forwarding/+1-no-bypass, load-use and taken-branch
//! stalls, and sequential architectural state. What moved to decode time:
//!
//! * Operand resolution, latency lookup (the no-forwarding penalty is baked
//!   into each op's latency), activity classification, fetch byte/line
//!   geometry.
//! * The **dual-issue pairing check**: an issue group of an in-order 2-wide
//!   front end only ever holds the dynamically previous instruction, which
//!   on a fall-through is the one at `pc - 1` — so the bipartite slot
//!   matching collapses to one precomputed `pair_with_prev` bit per
//!   adjacent instruction pair.

use super::{CustomPools, DecodedOp, FetchInfo};
use crate::run::SimError;
use crate::scalar::group_fits;
use asip_isa::scalar::scalar_inst_bytes;
use asip_isa::{MachineDescription, Opcode, ScalarProgram};

/// One fully pre-decoded instruction: the op plus everything the pipeline
/// loop consults per fetch, in one cache-friendly record.
#[derive(Debug, Clone)]
pub(crate) struct Inst {
    pub(crate) op: DecodedOp,
    pub(crate) interlock: (u32, u32),
    /// Activity-class index (`LatClass` order), counted with one indexed
    /// add per instruction instead of a branch tree.
    pub(crate) class: u8,
    /// Pre-rounded custom-datapath area charged per execution (0 for base
    /// ops).
    pub(crate) custom_area: u32,
    /// Fall-through control ops still seal their issue group.
    pub(crate) seals: bool,
    /// Whether this instruction can dual-issue with its *predecessor*
    /// under the slot table (false for instruction 0). Stored on the
    /// current instruction so the structural check never touches the
    /// previous instruction's record.
    pub(crate) pair_with_prev: bool,
    pub(crate) fetch: FetchInfo,
}

/// A [`ScalarProgram`] compiled once against a [`MachineDescription`] into
/// the dense form the block engine executes. Owns clones of the machine
/// and program, so a decoding can outlive its inputs.
#[derive(Debug)]
pub(crate) struct DecodedScalar {
    pub(crate) machine: MachineDescription,
    pub(crate) program: ScalarProgram,
    pub(crate) insts: Vec<Inst>,
    /// Flat registers each instruction reads or writes (hazard set).
    pub(crate) interlock: Vec<u32>,
    pub(crate) pools: CustomPools,
    pub(crate) entry_pc: u32,
    pub(crate) num_args: u32,
    pub(crate) nregs: usize,
    pub(crate) width: usize,
    pub(crate) branch_penalty: u64,
}

impl DecodedScalar {
    /// Validate `program` against the scalar pipeline of `machine`, then
    /// decode it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if the program fails static validation
    /// against the machine.
    pub(crate) fn new(
        machine: &MachineDescription,
        program: &ScalarProgram,
    ) -> Result<DecodedScalar, SimError> {
        program
            .validate(machine)
            .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        let regs_per = u32::from(machine.regs_per_cluster);
        let layout = program.layout(machine.encoding);
        let line_bytes = machine.icache.map(|c| c.line_bytes);
        let fn_entry: Vec<u32> = program.functions.iter().map(|f| f.entry).collect();
        // Extra forwarding cost: without bypass, results take one more
        // cycle through the register file before a consumer can issue.
        let fwd_extra = u64::from(!machine.forwarding);

        let n = program.insts.len();
        let mut insts = Vec::with_capacity(n);
        let mut interlock = Vec::new();
        let mut pools = CustomPools::default();
        for (pc, op) in program.insts.iter().enumerate() {
            let bytes = scalar_inst_bytes(op, machine.encoding);
            let i0 = interlock.len() as u32;
            for r in op.reads().chain(op.dsts.iter().copied()) {
                if !r.is_zero() {
                    interlock.push(super::flat_reg(r, regs_per));
                }
            }
            let custom_area = match op.opcode {
                Opcode::Custom(k) => program
                    .custom_ops
                    .get(k as usize)
                    .map(|def| def.area.round() as u32)
                    .unwrap_or(0),
                _ => 0,
            };
            let pair_with_prev = pc > 0
                && group_fits(
                    &machine.slots,
                    &[program.insts[pc - 1].opcode.fu_kind()],
                    op.opcode.fu_kind(),
                );
            insts.push(Inst {
                op: super::decode_op(op, machine, &fn_entry, regs_per, fwd_extra, &mut pools),
                interlock: (i0, interlock.len() as u32),
                class: op.opcode.lat_class() as u8,
                custom_area,
                seals: op.opcode.is_control(),
                pair_with_prev,
                fetch: FetchInfo::new(layout.inst_addr[pc], bytes, line_bytes),
            });
        }
        let entry = &program.functions[program.entry_func as usize];
        Ok(DecodedScalar {
            machine: machine.clone(),
            program: program.clone(),
            insts,
            interlock,
            pools,
            entry_pc: entry.entry,
            num_args: entry.num_args,
            nregs: regs_per as usize,
            width: machine.issue_width().clamp(1, 2),
            branch_penalty: u64::from(machine.branch_penalty),
        })
    }
}
