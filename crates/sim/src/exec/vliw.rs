//! The decoded VLIW tables: dense bundles, each with its flat op range,
//! interlock register set, pre-aggregated statistics and fetch geometry.
//!
//! Timing semantics are the reference model's (see [`crate::reference`]):
//! in-order bundle issue, whole-machine interlock on not-ready source
//! *and* destination registers, VLIW read-before-write within a bundle,
//! stores applied at end of bundle, taken branches paying the machine's
//! penalty. The block engine ([`crate::block::vliw`]) replays them over a
//! per-register ready-time scoreboard (`ready[r]`/`pending[r]`): the
//! interlock waits on destinations too, so at most one write per register
//! is ever in flight and the scoreboard loses no information.

use super::{ActivityDelta, CustomPools, DecodedOp, FetchInfo};
use crate::run::SimError;
use asip_isa::encoding::{bundle_bytes, layout};
use asip_isa::{MachineDescription, VliwProgram};

/// Per-bundle metadata: op and interlock-register ranges into the decoded
/// program's flat pools, pre-aggregated statistics deltas, and the fetch
/// geometry — everything the cycle loop touches per bundle, in one record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BundleMeta {
    pub(crate) ops: (u32, u32),
    pub(crate) interlock: (u32, u32),
    pub(crate) idle_slots: u64,
    pub(crate) act: ActivityDelta,
    pub(crate) fetch: FetchInfo,
}

/// A [`VliwProgram`] compiled once against a [`MachineDescription`] into
/// the dense form the block engine executes. Owns clones of the machine
/// and program, so a decoding can outlive its inputs.
#[derive(Debug)]
pub(crate) struct DecodedVliw {
    pub(crate) machine: MachineDescription,
    pub(crate) program: VliwProgram,
    pub(crate) bundles: Vec<BundleMeta>,
    pub(crate) ops: Vec<DecodedOp>,
    /// Flat registers each bundle reads or writes (interlock set).
    pub(crate) interlock: Vec<u32>,
    pub(crate) pools: CustomPools,
    pub(crate) entry_pc: u32,
    pub(crate) num_args: u32,
    pub(crate) nregs: usize,
    pub(crate) branch_penalty: u64,
}

impl DecodedVliw {
    /// Validate `program` against `machine`, then decode it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if the program fails static validation
    /// against the machine.
    pub(crate) fn new(
        machine: &MachineDescription,
        program: &VliwProgram,
    ) -> Result<DecodedVliw, SimError> {
        program
            .validate(machine)
            .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        let layout = layout(program, machine);
        let regs_per = u32::from(machine.regs_per_cluster);
        let nregs = machine.clusters as usize * regs_per as usize;
        let line_bytes = machine.icache.map(|c| c.line_bytes);
        let fn_entry: Vec<u32> = program.functions.iter().map(|f| f.entry).collect();

        let mut bundles = Vec::with_capacity(program.bundles.len());
        let mut ops = Vec::new();
        let mut interlock = Vec::new();
        let mut pools = CustomPools::default();
        for (pc, b) in program.bundles.iter().enumerate() {
            let bytes = bundle_bytes(b, machine, machine.encoding);
            let o0 = ops.len() as u32;
            let i0 = interlock.len() as u32;
            let mut act = ActivityDelta::default();
            for (_, op) in b.ops() {
                act.add_op(op, &program.custom_ops);
                for r in op.reads().chain(op.dsts.iter().copied()) {
                    interlock.push(super::flat_reg(r, regs_per));
                }
                ops.push(super::decode_op(
                    op, machine, &fn_entry, regs_per, 0, &mut pools,
                ));
            }
            bundles.push(BundleMeta {
                ops: (o0, ops.len() as u32),
                interlock: (i0, interlock.len() as u32),
                idle_slots: (b.slots.len() - b.occupancy()) as u64,
                act,
                fetch: FetchInfo::new(layout.bundle_addr[pc], bytes, line_bytes),
            });
        }
        let entry = &program.functions[program.entry_func as usize];
        Ok(DecodedVliw {
            machine: machine.clone(),
            program: program.clone(),
            bundles,
            ops,
            interlock,
            pools,
            entry_pc: entry.entry,
            num_args: entry.num_args,
            nregs,
            branch_penalty: u64::from(machine.branch_penalty),
        })
    }
}
