//! Dependence-DAG construction and latency-aware list scheduling.
//!
//! Scheduling is per superblock. Pure operations may be hoisted above
//! earlier conditional exits (speculation) when their results are not live
//! on the exit path; memory operations, calls, emits and potential traps
//! keep their order with respect to branches. Correctness never depends on
//! latency bookkeeping: the simulator interlocks on not-ready registers, so
//! a conservative schedule is merely slower, never wrong.

use crate::cluster::Homes;
use crate::lir::{LBlock, LFunc, LOp, LTarget, MemKey, RETV};
use asip_ir::bitset::{self, has_bit, set_bit, union_into};
use asip_ir::inst::VReg;
use asip_isa::{FuKind, MachineDescription, Opcode};
use std::fmt;

/// A slot no operation occupies, in [`ScheduledFunc::bundles`].
pub const EMPTY: u32 = u32::MAX;

/// A scheduled function: per block (same ids as the LIR), its bundles in
/// issue order. A bundle is `width` slots (global slot index = cluster ×
/// slots_per_cluster + s), each holding the index of an operation of that
/// LIR block, or [`EMPTY`]. A schedule names operations of the [`LFunc`] it
/// was built from; it copies none of them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFunc {
    width: usize,
    /// Block `b`'s bundles are bundles `block_start[b]..block_start[b + 1]`.
    block_start: Vec<u32>,
    /// Slot contents, bundle-major.
    slots: Vec<u32>,
}

impl ScheduledFunc {
    fn new(width: usize, blocks: usize) -> ScheduledFunc {
        let mut block_start = Vec::with_capacity(blocks + 1);
        block_start.push(0);
        ScheduledFunc {
            width,
            block_start,
            slots: Vec::new(),
        }
    }

    fn push_bundle(&mut self, bundle: &[u32]) {
        debug_assert_eq!(bundle.len(), self.width);
        self.slots.extend_from_slice(bundle);
    }

    fn end_block(&mut self) {
        self.block_start
            .push((self.slots.len() / self.width.max(1)) as u32);
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_start.len() - 1
    }

    /// Block `b`'s bundles in issue order, each `width` op indices into
    /// the block's LIR ops ([`EMPTY`] for an idle slot).
    pub fn bundles(&self, b: usize) -> std::slice::ChunksExact<'_, u32> {
        let w = self.width;
        let (lo, hi) = (
            self.block_start[b] as usize,
            self.block_start[b + 1] as usize,
        );
        self.slots[lo * w..hi * w].chunks_exact(w)
    }

    /// Total bundles across all blocks.
    pub fn num_bundles(&self) -> usize {
        self.block_start.last().map_or(0, |&n| n as usize)
    }

    /// Total occupied slots.
    pub fn num_ops(&self) -> usize {
        self.slots.iter().filter(|&&s| s != EMPTY).count()
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No slot on the op's home cluster hosts the required unit kind.
    NoSlotFor {
        /// Mnemonic of the unplaceable op.
        opcode: String,
        /// Home cluster that lacks a slot.
        cluster: u8,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoSlotFor { opcode, cluster } => {
                write!(f, "no issue slot on cluster {cluster} can host {opcode}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Table index of a virtual register in a function with `num_vregs`
/// registers: its number, except [`RETV`], which takes the one index past
/// the function's own registers. Every per-vreg table of a
/// schedule → allocate round is indexed this way.
#[inline]
fn dense(v: VReg, num_vregs: u32) -> usize {
    if v == RETV {
        num_vregs as usize
    } else {
        debug_assert!(v.0 < num_vregs, "{v} outside the function's registers");
        v.0 as usize
    }
}

/// Per-block live-in sets over a function's LIR virtual registers ([`RETV`]
/// included), as one bitset row per block over [`dense`] indices, plus the
/// branch-successor lists the fixpoint ran over.
///
/// One is computed per schedule → allocate round, after cluster assignment
/// has inserted its copies, and both consumers read it: the scheduler asks
/// which definitions are live on a side exit, the allocator extends
/// intervals across block boundaries. Bundle order cannot change a block's
/// upward-exposed reads: a read and an earlier definition of its register
/// are joined by a dependence edge of latency ≥ 1, and a same-bundle write
/// is invisible to reads (VLIW read-before-write), so the LIR order's sets
/// are the scheduled code's sets.
pub(crate) struct Liveness {
    num_vregs: u32,
    words: usize,
    live_in: Vec<u64>,
    succ_start: Vec<u32>,
    succ: Vec<u32>,
}

impl Liveness {
    /// [`dense`] index of `v` in this function.
    #[inline]
    pub(crate) fn index(&self, v: VReg) -> usize {
        dense(v, self.num_vregs)
    }

    /// Table length covering every [`Liveness::index`].
    pub(crate) fn len(&self) -> usize {
        self.num_vregs as usize + 1
    }

    /// `u64` words in one set row.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The live-in row of block `b`.
    pub(crate) fn live_in(&self, b: usize) -> &[u64] {
        &self.live_in[b * self.words..(b + 1) * self.words]
    }

    /// Branch-target successors of block `b`, in op order.
    fn successors(&self, b: usize) -> &[u32] {
        &self.succ[self.succ_start[b] as usize..self.succ_start[b + 1] as usize]
    }

    /// Overwrite `out` with the union of block `b`'s successors' live-in
    /// rows: its live-out set.
    pub(crate) fn live_out_into(&self, b: usize, out: &mut [u64]) {
        out.fill(0);
        for &s in self.successors(b) {
            union_into(out, self.live_in(s as usize));
        }
    }
}

/// Per-block live-in sets over LIR virtual registers (RETV included).
pub(crate) fn lir_liveness(f: &LFunc) -> Liveness {
    let n = f.blocks.len();
    let nv = f.num_vregs;
    let words = bitset::words(nv as usize + 1);
    let mut uses = vec![0u64; n * words];
    let mut defs = vec![0u64; n * words];
    let mut succ_start = Vec::with_capacity(n + 1);
    let mut succ = Vec::new();
    for (i, b) in f.blocks.iter().enumerate() {
        succ_start.push(succ.len() as u32);
        succ.extend(b.successors());
        let (u, d) = (
            &mut uses[i * words..(i + 1) * words],
            &mut defs[i * words..(i + 1) * words],
        );
        for op in &b.ops {
            for r in effective_reads(op) {
                let r = dense(r, nv);
                if !has_bit(d, r) {
                    set_bit(u, r);
                }
            }
            for x in effective_defs(op) {
                set_bit(d, dense(x, nv));
            }
        }
    }
    succ_start.push(succ.len() as u32);
    let mut live = Liveness {
        num_vregs: nv,
        words,
        live_in: vec![0u64; n * words],
        succ_start,
        succ,
    };
    // Fixpoint: in = uses ∪ (out ∖ defs), iterated to the least solution.
    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            live.live_out_into(i, &mut out);
            let row = i * words..(i + 1) * words;
            for (((l, &u), &d), &o) in live.live_in[row.clone()]
                .iter_mut()
                .zip(&uses[row.clone()])
                .zip(&defs[row])
                .zip(&out)
            {
                let v = u | (o & !d);
                if v != *l {
                    *l = v;
                    changed = true;
                }
            }
        }
    }
    live
}

/// Reads including implicit ones (Ret reads the return-value register).
pub(crate) fn effective_reads(op: &LOp) -> impl Iterator<Item = VReg> + '_ {
    op.reads().chain((op.opcode == Opcode::Ret).then_some(RETV))
}

/// Defs including implicit ones (Call writes the return-value register).
pub(crate) fn effective_defs(op: &LOp) -> impl Iterator<Item = VReg> + '_ {
    op.dsts
        .iter()
        .copied()
        .chain((op.opcode == Opcode::Call).then_some(RETV))
}

/// Like [`effective_defs`], additionally modelling that a call clobbers the
/// frame-pointer register (the callee may overwrite its physical home; the
/// caller rematerializes it from SP right after the call).
pub(crate) fn effective_defs_with_clobber(op: &LOp, vfp: VReg) -> impl Iterator<Item = VReg> + '_ {
    effective_defs(op).chain((op.opcode == Opcode::Call).then_some(vfp))
}

/// Schedule every block of a function. `live` is the round's liveness of
/// `f`.
///
/// # Errors
///
/// [`ScheduleError`] when an operation cannot be placed on any slot of its
/// home cluster.
pub(crate) fn schedule_function(
    f: &LFunc,
    machine: &MachineDescription,
    homes: &Homes,
    live: &Liveness,
) -> Result<ScheduledFunc, ScheduleError> {
    let mut ls = ListScheduler::new(machine, live.len());
    let mut out = ScheduledFunc::new(machine.issue_width(), f.blocks.len());
    for b in &f.blocks {
        ls.schedule_block(b, homes, live, f.vfp, &mut out)?;
        out.end_block();
    }
    Ok(out)
}

/// Degraded-mode scheduling: one operation per bundle, strict program
/// order. Used as a register-pressure fallback — reloads sit directly
/// before their uses, so spill-temporary lifetimes are minimal and
/// allocation succeeds on any register file large enough for the source
/// expressions themselves.
///
/// # Errors
///
/// [`ScheduleError`] when an operation has no compatible slot at all.
pub fn schedule_function_sequential(
    f: &LFunc,
    machine: &MachineDescription,
    homes: &Homes,
) -> Result<ScheduledFunc, ScheduleError> {
    let spc = machine.slots_per_cluster();
    let mut out = ScheduledFunc::new(machine.issue_width(), f.blocks.len());
    let mut bundle = vec![EMPTY; out.width];
    for b in &f.blocks {
        for (i, op) in b.ops.iter().enumerate() {
            let cluster = op_cluster(op, homes) as usize;
            let kind = op.opcode.fu_kind();
            let slot = (0..spc)
                .find(|&s| machine.slots[s].hosts(kind))
                .ok_or_else(|| ScheduleError::NoSlotFor {
                    opcode: op.opcode.to_string(),
                    cluster: cluster as u8,
                })?;
            bundle.fill(EMPTY);
            bundle[cluster * spc + slot] = i as u32;
            out.push_bundle(&bundle);
        }
        out.end_block();
    }
    Ok(out)
}

#[derive(Clone, Copy)]
struct Edge {
    to: u32,
    lat: u32,
}

/// "No entry" in the per-vreg tables.
const NONE: u32 = u32::MAX;

/// The list scheduler of one machine. Its tables are sized once per
/// function and reset between blocks, so scheduling a block allocates
/// nothing but its output.
struct ListScheduler<'m> {
    machine: &'m MachineDescription,
    /// Per unit kind (`FuKind as usize`): the cluster-relative slots
    /// hosting it, fewest capabilities first, lowest index on ties — the
    /// order the list scheduler tries free slots in.
    slot_pref: [Vec<usize>; FuKind::ALL.len()],
    /// Per vreg: the op that last defined it in this block. This and
    /// `use_head` are all [`NONE`] between blocks.
    last_def: Vec<u32>,
    /// Per vreg: head of its reads-since-last-def list in `use_pool`.
    use_head: Vec<u32>,
    /// Linked-list cells `(op, next)` of the reads-since-def lists.
    use_pool: Vec<(u32, u32)>,
    /// Memory ops so far: (op, alias key, is store).
    mem_ops: Vec<(usize, MemKey, bool)>,
    /// The stores among `mem_ops`, the only ones a load must follow.
    stores: Vec<(usize, MemKey)>,
    branches: Vec<usize>,
    succs: Vec<Vec<Edge>>,
    indeg: Vec<u32>,
    lat: Vec<u32>,
    height: Vec<u32>,
    earliest: Vec<u32>,
    /// Per op: its home cluster.
    cluster: Vec<u8>,
    scheduled: Vec<bool>,
    ready: Vec<usize>,
    cands: Vec<usize>,
    /// The bundle being filled: op index per global slot, or [`EMPTY`].
    bundle: Vec<u32>,
}

impl<'m> ListScheduler<'m> {
    /// A scheduler for a function whose per-vreg tables have `vregs`
    /// entries (see [`Liveness::len`]).
    fn new(machine: &'m MachineDescription, vregs: usize) -> ListScheduler<'m> {
        let spc = machine.slots_per_cluster();
        let mut slot_pref: [Vec<usize>; FuKind::ALL.len()] = Default::default();
        for kind in FuKind::ALL {
            let pref = &mut slot_pref[kind as usize];
            pref.extend((0..spc).filter(|&s| machine.slots[s].hosts(kind)));
            pref.sort_by_key(|&s| (machine.slots[s].kinds().len(), s));
        }
        ListScheduler {
            machine,
            slot_pref,
            last_def: vec![NONE; vregs],
            use_head: vec![NONE; vregs],
            use_pool: Vec::new(),
            mem_ops: Vec::new(),
            stores: Vec::new(),
            branches: Vec::new(),
            succs: Vec::new(),
            indeg: Vec::new(),
            lat: Vec::new(),
            height: Vec::new(),
            earliest: Vec::new(),
            cluster: Vec::new(),
            scheduled: Vec::new(),
            ready: Vec::new(),
            cands: Vec::new(),
            bundle: vec![EMPTY; machine.issue_width()],
        }
    }

    /// Size the per-op tables for an `n`-op block and clear them.
    fn reset(&mut self, n: usize) {
        if self.succs.len() < n {
            self.succs.resize_with(n, Vec::new);
        }
        for s in &mut self.succs[..n] {
            s.clear();
        }
        for v in [
            &mut self.indeg,
            &mut self.lat,
            &mut self.height,
            &mut self.earliest,
        ] {
            v.clear();
            v.resize(n, 0);
        }
        self.cluster.clear();
        self.scheduled.clear();
        self.scheduled.resize(n, false);
        self.use_pool.clear();
        self.mem_ops.clear();
        self.stores.clear();
        self.branches.clear();
    }

    fn edge(&mut self, from: usize, to: usize, lat: u32) {
        debug_assert!(from < to);
        self.succs[from].push(Edge { to: to as u32, lat });
        self.indeg[to] += 1;
    }

    /// Build the block's dependence DAG into `succs`/`indeg`.
    fn build_dag(&mut self, ops: &[LOp], live: &Liveness, vfp: VReg) {
        let n = ops.len();
        let mut last_serial: Option<usize> = None;
        let mut last_obs: Option<usize> = None; // Emit/Call observable order
        let mut last_call: Option<usize> = None;

        for (j, op) in ops.iter().enumerate() {
            self.lat[j] = self.machine.latency(op.opcode);
            // Register dependences.
            for r in effective_reads(op) {
                let r = live.index(r);
                let d = self.last_def[r];
                if d != NONE {
                    let lat = self.lat[d as usize];
                    self.edge(d as usize, j, lat);
                }
                self.use_pool.push((j as u32, self.use_head[r]));
                self.use_head[r] = (self.use_pool.len() - 1) as u32;
            }
            for d in effective_defs_with_clobber(op, vfp) {
                let d = live.index(d);
                let prev = self.last_def[d];
                if prev != NONE {
                    self.edge(prev as usize, j, 1); // WAW
                }
                let mut cell = self.use_head[d];
                while cell != NONE {
                    let (u, next) = self.use_pool[cell as usize];
                    if u as usize != j {
                        self.edge(u as usize, j, 0); // WAR
                    }
                    cell = next;
                }
                self.last_def[d] = j as u32;
                self.use_head[d] = NONE;
            }
            // Memory order.
            if let Some(key) = op.mem_key(vfp) {
                let is_store = op.opcode == Opcode::Stw;
                if is_store {
                    for k in 0..self.mem_ops.len() {
                        let (i, ikey, i_store) = self.mem_ops[k];
                        if key.may_alias(ikey) {
                            let lat = if i_store { 1 } else { 0 }; // store→X waits a cycle
                            self.edge(i, j, lat);
                        }
                    }
                    self.stores.push((j, key));
                } else {
                    for k in 0..self.stores.len() {
                        let (i, ikey) = self.stores[k];
                        if key.may_alias(ikey) {
                            self.edge(i, j, 1);
                        }
                    }
                }
                if let Some(c) = last_call {
                    self.edge(c, j, 1);
                }
                self.mem_ops.push((j, key, is_store));
            }
            // Serial chain (SP/LR/control-adjacent ops).
            if op.is_serial() {
                if let Some(s) = last_serial {
                    self.edge(s, j, 1);
                }
                last_serial = Some(j);
            }
            // Observable order: emits and calls.
            if matches!(op.opcode, Opcode::Emit | Opcode::Call) {
                if let Some(o) = last_obs {
                    self.edge(o, j, 1);
                }
                last_obs = Some(j);
            }
            if op.opcode == Opcode::Call {
                // Calls are memory barriers.
                for k in 0..self.mem_ops.len() {
                    self.edge(self.mem_ops[k].0, j, 1);
                }
                last_call = Some(j);
            }
            // Control-op chain.
            if op.opcode.is_control() {
                if let Some(&b) = self.branches.last() {
                    self.edge(b, j, 1);
                }
                self.branches.push(j);
            }
        }
        // The per-vreg tables are block-local: clear the entries this block
        // touched.
        for op in ops {
            for r in effective_reads(op).chain(effective_defs_with_clobber(op, vfp)) {
                let r = live.index(r);
                self.last_def[r] = NONE;
                self.use_head[r] = NONE;
            }
        }

        // Branch/speculation constraints.
        for bi in 0..self.branches.len() {
            let bj = self.branches[bi];
            let bop = &ops[bj];
            let exit_live: Option<&[u64]> = match bop.target {
                LTarget::Block(t) if bop.is_branch() => Some(live.live_in(t as usize)),
                _ => None,
            };
            let def_live = |o: &LOp| match exit_live {
                Some(l) => effective_defs(o).any(|d| has_bit(l, live.index(d))),
                None => effective_defs(o).next().is_some(),
            };
            // Ops before the branch: side-effecting or trap-capable ops must not
            // sink below it; defs live on the exit path must be complete.
            for (i, oi) in ops.iter().enumerate().take(bj) {
                if oi.opcode.is_control() {
                    continue; // control chain already ordered
                }
                if !oi.opcode.is_speculable() || def_live(oi) {
                    self.edge(i, bj, 0);
                }
            }
            // Ops after the branch: only pure ops whose defs are dead on the
            // exit path may be speculated above it.
            for (k, ok) in ops.iter().enumerate().skip(bj + 1) {
                if ok.opcode.is_control() {
                    continue;
                }
                if !ok.opcode.is_speculable() || def_live(ok) {
                    self.edge(bj, k, 1);
                }
            }
        }
        // Everything must be placed no later than the final control op.
        if self.branches.last() == Some(&(n - 1)) {
            for i in 0..n - 1 {
                self.edge(i, n - 1, 0);
            }
        }

        // Priorities: critical-path height.
        for i in (0..n).rev() {
            let mut h = self.lat[i];
            for e in &self.succs[i] {
                h = h.max(e.lat + self.height[e.to as usize]);
            }
            self.height[i] = h;
        }
    }

    /// List-schedule one block, appending its bundles to `out`.
    fn schedule_block(
        &mut self,
        block: &LBlock,
        homes: &Homes,
        live: &Liveness,
        vfp: VReg,
        out: &mut ScheduledFunc,
    ) -> Result<(), ScheduleError> {
        let ops = &block.ops;
        let n = ops.len();
        if n == 0 {
            return Ok(());
        }
        self.reset(n);

        // Pre-check: every op must have a compatible slot on its home cluster.
        for op in ops {
            let cluster = op_cluster(op, homes);
            if self.slot_pref[op.opcode.fu_kind() as usize].is_empty() {
                return Err(ScheduleError::NoSlotFor {
                    opcode: op.opcode.to_string(),
                    cluster,
                });
            }
            self.cluster.push(cluster);
        }

        self.build_dag(ops, live, vfp);

        // ---- list scheduling ----
        let spc = self.machine.slots_per_cluster();
        let ListScheduler {
            slot_pref,
            succs,
            indeg,
            height,
            earliest,
            cluster,
            scheduled,
            ready,
            cands,
            bundle,
            ..
        } = self;
        ready.clear();
        ready.extend((0..n).filter(|&i| indeg[i] == 0));
        let mut remaining = n;
        let mut cycle = 0u32;

        while remaining > 0 {
            // Candidates ready this cycle, best priority first.
            cands.clear();
            cands.extend(ready.iter().copied().filter(|&i| earliest[i] <= cycle));
            if cands.is_empty() {
                // Idle until the earliest in-flight result lands (idle
                // cycles emit no bundle: the simulator interlocks anyway).
                cycle = ready
                    .iter()
                    .map(|&i| earliest[i])
                    .min()
                    .expect("an unscheduled DAG has a ready op");
            } else {
                cands.sort_by_key(|&i| (std::cmp::Reverse(height[i]), i));
                bundle.fill(EMPTY);
                let mut free = bundle.len();
                let mut control_used = false;
                for &i in cands.iter() {
                    let op = &ops[i];
                    let control = op.opcode.is_control();
                    if control && control_used {
                        continue;
                    }
                    let base = cluster[i] as usize * spc;
                    let pref = &slot_pref[op.opcode.fu_kind() as usize];
                    if let Some(&s) = pref.iter().find(|&&s| bundle[base + s] == EMPTY) {
                        bundle[base + s] = i as u32;
                        scheduled[i] = true;
                        control_used |= control;
                        free -= 1;
                        if free == 0 {
                            break;
                        }
                    }
                }
                // Retire the placed ops and release their successors.
                ready.retain(|&r| !scheduled[r]);
                for &i in bundle.iter().filter(|&&i| i != EMPTY) {
                    remaining -= 1;
                    for e in &succs[i as usize] {
                        let to = e.to as usize;
                        earliest[to] = earliest[to].max(cycle + e.lat);
                        indeg[to] -= 1;
                        if indeg[to] == 0 {
                            ready.push(to);
                        }
                    }
                }
                out.push_bundle(bundle);
                cycle += 1;
            }
            // Safety valve against scheduler bugs.
            if cycle > (n as u32 + 8) * 64 {
                unreachable!("scheduler failed to converge on a block of {n} ops");
            }
        }
        Ok(())
    }
}

fn op_cluster(op: &LOp, homes: &Homes) -> u8 {
    if op.is_serial() || op.opcode.fu_kind() == FuKind::Branch {
        return 0;
    }
    if let Some(&d) = op.dsts.first() {
        return homes.of(d);
    }
    // Stores and other dst-less ops: use the first register operand's home.
    op.reads().next().map_or(0, |r| homes.of(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign_clusters;
    use crate::lir::lower_module;

    fn sched(src: &str, m: &MachineDescription) -> (LFunc, ScheduledFunc) {
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        let mut lf = lower_module(&module, m, "main").unwrap().funcs.remove(0);
        crate::trace::form_superblocks(&mut lf, &[], &crate::trace::TraceConfig::default());
        let homes = assign_clusters(&mut lf, m);
        let s = schedule_function(&lf, m, &homes, &lir_liveness(&lf)).unwrap();
        (lf, s)
    }

    /// Per block, per bundle, the slots' operations.
    fn bundles<'a>(lf: &'a LFunc, s: &ScheduledFunc) -> Vec<Vec<Vec<Option<&'a LOp>>>> {
        (0..s.num_blocks())
            .map(|b| {
                s.bundles(b)
                    .map(|bu| {
                        bu.iter()
                            .map(|&o| (o != EMPTY).then(|| &lf.blocks[b].ops[o as usize]))
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_ops_scheduled_exactly_once() {
        let m = MachineDescription::ember4();
        let (lf, s) = sched("void main(int a, int b) { emit(a * b + a - b); }", &m);
        let lir_ops: usize = lf.blocks.iter().map(|b| b.ops.len()).sum();
        assert_eq!(s.num_ops(), lir_ops);
    }

    #[test]
    fn wider_machine_schedules_no_longer() {
        let src = r#"
            void main(int a, int b, int c, int d) {
                emit((a + b) + (c + d) + (a - b) + (c - d));
            }
        "#;
        let m1 = MachineDescription::ember1();
        let m4 = MachineDescription::ember4();
        let (_, s1) = sched(src, &m1);
        let (_, s4) = sched(src, &m4);
        assert!(
            s4.num_bundles() <= s1.num_bundles(),
            "4-wide ({}) must not be slower than 1-wide ({})",
            s4.num_bundles(),
            s1.num_bundles()
        );
        assert!(
            s4.num_bundles() < s1.num_bundles(),
            "independent adds must pack"
        );
    }

    #[test]
    fn bundle_width_matches_machine() {
        let m = MachineDescription::ember4();
        let (lf, s) = sched("void main() { emit(1); }", &m);
        assert!(s.num_bundles() > 0);
        for b in bundles(&lf, &s).iter().flatten() {
            assert_eq!(b.len(), 4);
        }
    }

    #[test]
    fn at_most_one_control_per_bundle() {
        let m = MachineDescription::ember8();
        let (lf, s) = sched(
            "void main(int n) { int i = 0; while (i < n) { if (i % 3) emit(i); i++; } }",
            &m,
        );
        for b in bundles(&lf, &s).iter().flatten() {
            let controls = b.iter().flatten().filter(|o| o.opcode.is_control()).count();
            assert!(controls <= 1, "bundle has {controls} control ops");
        }
    }

    #[test]
    fn slots_host_only_compatible_ops() {
        let m = MachineDescription::ember4();
        let (lf, s) = sched(
            "int t[8]; void main(int n) { int i = 0; while (i < 8) { t[i] = i * n; i++; } emit(t[3]); }",
            &m,
        );
        let spc = m.slots_per_cluster();
        for b in bundles(&lf, &s).iter().flatten() {
            for (g, op) in b.iter().enumerate() {
                if let Some(op) = op {
                    assert!(
                        m.slots[g % spc].hosts(op.opcode.fu_kind()),
                        "slot {g} cannot host {}",
                        op.opcode
                    );
                }
            }
        }
    }

    #[test]
    fn stores_do_not_move_above_side_exits() {
        // A store after a conditional exit must stay after it: sharing the
        // exit's bundle would already commit it on the exit path.
        let m = MachineDescription::ember4();
        let (lf, s) = sched(
            r#"
            int g;
            int h[4];
            void main(int n) {
                int i = 0;
                while (i < n) { g = i; if (i == 7) h[1] = g; h[i & 3] = i; i++; }
                emit(g + h[1]);
            }
            "#,
            &m,
        );
        let mut checked = 0;
        for (b, bundles) in lf.blocks.iter().zip(bundles(&lf, &s)) {
            // Control ops form a chain, one per bundle, in LIR order.
            let control_bundle: Vec<usize> = bundles
                .iter()
                .enumerate()
                .filter(|(_, bu)| bu.iter().flatten().any(|o| o.opcode.is_control()))
                .map(|(k, _)| k)
                .collect();
            let mut stores_before = 0;
            let mut nth_control = 0;
            for (p, op) in b.ops.iter().enumerate() {
                if op.opcode == Opcode::Stw {
                    stores_before += 1;
                }
                if !op.opcode.is_control() {
                    continue;
                }
                let exit_bundle = control_bundle[nth_control];
                nth_control += 1;
                if !matches!(op.opcode, Opcode::BrT | Opcode::BrF) {
                    continue;
                }
                // Stores up to the exit's bundle are exactly the stores that
                // precede it in LIR order: none sank below, none rose above.
                let stores_scheduled = bundles[..=exit_bundle]
                    .iter()
                    .flat_map(|bu| bu.iter().flatten())
                    .filter(|o| o.opcode == Opcode::Stw)
                    .count();
                assert_eq!(
                    stores_scheduled, stores_before,
                    "block {b:?}: stores crossed the side exit at op {p}"
                );
                if b.ops[p..].iter().any(|o| o.opcode == Opcode::Stw) {
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no side exit with a later store was scheduled");
    }
}
