//! The block-compiled VLIW engine: superops over decoded bundles.
//!
//! See the module docs of [`crate::block`] for the design. The VLIW
//! specifics:
//!
//! * **Folded stalls.** Within a block, the whole-machine interlock is a
//!   pure function of the schedule: the static trace replays the slow
//!   path's scoreboard arithmetic (stall to the latest in-flight
//!   ready time, commit, write `issue + latency`) at translation time,
//!   so the fast path adds one precomputed stall total instead of probing
//!   the scoreboard per bundle.
//! * **Direct register writes.** The slow path buffers results in a
//!   pending scoreboard to model VLIW read-before-write; but every read
//!   is interlocked, so once the entry guard proves no write is in flight
//!   the only observable reorderings are *within* one bundle. Bundles
//!   whose write set intersects their read set keep a deferred write
//!   buffer (and load/store mixes a deferred store buffer); every other
//!   bundle writes the register file directly.
//! * **Live-out re-arming.** Writes still in flight at block exit are
//!   entered into the real scoreboard (value already in place, ready time
//!   `entry + offset`), so cross-block timing composes exactly; the next
//!   block's entry guard commits arrived writes and bails to the slow
//!   path if any are genuinely outstanding.

use super::{ctrl_of, for_each_read, for_each_write};
use super::{TraceState, MAX_TRACE_BLOCKS, MAX_TRACE_PCS};
use crate::exec::{ActivityDelta, DecodedVliw, ExecKind, Src, LR_HALT};
use crate::icache::ICache;
use crate::run::{SimError, SimOptions, SimResult};
use asip_dbt::blocks::{discover, grow_trace, BlockMap};
use asip_isa::{ActivityCounts, EvalError, MachineDescription, VliwProgram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Residual per-bundle execution flags: the shapes where same-bundle
/// ordering is observable and the fast path must buffer like the slow
/// path instead of writing through.
#[derive(Debug, Clone, Copy, Default)]
struct BundleFlags {
    /// The bundle reads a register it also writes: keep VLIW
    /// read-before-write by deferring register writes to end of bundle.
    defer_writes: bool,
    /// The bundle mixes loads and stores: keep end-of-bundle store
    /// application so a load never observes a same-bundle store.
    defer_stores: bool,
}

/// One translated basic block: the precomputed static trace plus the
/// residual dynamic checks. Valid only under the entry guard's
/// assumptions (see [`crate::block`] docs).
#[derive(Debug)]
struct Superop {
    /// Whether the fast path may run this block at all (the translator
    /// refuses bundles straddling 3+ I-cache lines).
    fast: bool,
    /// Cycles from block entry to exit, folded stalls and each bundle's
    /// issue cycle included, the dynamic taken-branch penalty excluded.
    total: u64,
    /// Interlock stall cycles folded into `total`.
    stalls: u64,
    /// Static offset of the last bundle's top-of-loop cycle-limit check.
    last_issue: u64,
    /// Bundle count (the block length).
    nbundles: u64,
    /// Summed idle issue slots.
    idle_slots: u64,
    /// Summed encoded fetch bytes.
    fetch_bytes: u64,
    /// Aggregated activity deltas (op counts included).
    act: ActivityDelta,
    /// Deduplicated I-cache lines the block fetches, in access order.
    lines: Vec<u64>,
    /// Writes still in flight at block exit: `(flat reg, ready offset)`.
    live_out: Vec<(u32, u64)>,
    /// Per-bundle residual flags, indexed by offset within the block.
    flags: Vec<BundleFlags>,
    /// Per-register issue offset of the block's first touch (read or
    /// write; `u64::MAX` = untouched). The entry guard uses it to admit
    /// in-flight writes that land at/before their first touch — the
    /// interlock would not have stalled, so the static trace still holds
    /// and the write can commit at entry.
    touch: Vec<u64>,
}

/// Cumulative per-segment exit state of a `SuperTrace`: everything
/// needed to leave the trace after segment `k` — normally via the last
/// segment, or early via a side exit — in O(1). All cycle fields are
/// chain-global offsets from trace entry, with the taken-branch
/// penalties of *earlier* internal transitions folded in and the exiting
/// transition's own (dynamic) penalty excluded, exactly mirroring
/// block-by-block execution.
#[derive(Debug)]
struct SegCum {
    /// Cycles from trace entry to this segment's exit.
    total: u64,
    /// Interlock stalls folded into `total` so far.
    stalls: u64,
    /// Internal taken-branch penalties folded into `total` so far.
    branch: u64,
    /// Bundles executed so far.
    nbundles: u64,
    /// Idle issue slots so far.
    idle_slots: u64,
    /// Encoded fetch bytes so far.
    fetch_bytes: u64,
    /// Activity deltas so far (op counts included).
    act: ActivityDelta,
    /// This segment's slice of [`SuperTrace::lines`], touched MRU-wise
    /// on segment entry (replicating the block tier's access order).
    lines_lo: u32,
    lines_hi: u32,
    /// This segment's slice of [`SuperTrace::flags`].
    flags_lo: u32,
    /// The profiled control transfer out of this segment; executing any
    /// other transfer side-exits the trace. Unused on the last segment.
    expect_pc: u32,
    expect_taken: bool,
    /// Scoreboard entries still in flight at this segment's exit:
    /// `(flat reg, chain-global ready offset)`. The runtime re-arms the
    /// ones still in the future at the actual exit cycle.
    live_out: Vec<(u32, u64)>,
}

/// A profile-promoted superblock: a chain of fast blocks compiled into
/// one superop specialized for the dominant path, with per-segment
/// cumulative state so side exits fall back into block dispatch exactly.
#[derive(Debug)]
struct SuperTrace {
    /// Block index of each segment, in chain order (the head may recur:
    /// a short loop unrolls through itself up to the caps).
    blocks: Vec<u32>,
    segs: Vec<SegCum>,
    /// Concatenated per-segment fetch lines (adjacent-deduplicated
    /// within a segment, as in the per-block superops).
    lines: Vec<u64>,
    /// Sorted, deduplicated union of `lines` for the read-only entry
    /// residency probe. Hits never evict, so residency of the whole
    /// union at entry implies residency at every segment.
    probe: Vec<u64>,
    /// Concatenated per-segment bundle flags.
    flags: Vec<BundleFlags>,
    /// Whole-trace first-touch offsets (chain-global) for entry
    /// admission of in-flight writes, as in [`Superop::touch`].
    touch: Vec<u64>,
    /// Chain-global offset of the last bundle's top-of-loop cycle-limit
    /// check — an upper bound over every check in the chain.
    last_issue: u64,
}

/// A [`VliwProgram`] block-compiled against a [`MachineDescription`]:
/// basic blocks are discovered up front ([`asip_dbt::blocks`]) and
/// translated to `Superop`s on first visit, hot loop heads are chained
/// into `SuperTrace`s once they pass [`SimOptions::sb_threshold`]
/// dispatches, and [`BlockVliw::run_with_inputs`] is the threaded-code
/// dispatch loop over them, with an exact per-bundle slow path.
#[derive(Debug)]
pub struct BlockVliw {
    d: DecodedVliw,
    map: BlockMap,
    /// Translate-on-first-visit cache, one slot per block (keyed by the
    /// block's entry pc through `map.block_of`). `OnceLock` because runs
    /// take `&self`.
    tx: Vec<OnceLock<Superop>>,
    /// The superblock tier's profile/promotion state.
    traces: TraceState<SuperTrace>,
    fast_blocks: AtomicU64,
    slow_bundles: AtomicU64,
}

impl BlockVliw {
    /// Validate and pre-decode `program`, then partition it into basic
    /// blocks. Translation to superops happens lazily on first visit.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if the program fails static validation
    /// against the machine.
    pub fn new(machine: &MachineDescription, program: &VliwProgram) -> Result<BlockVliw, SimError> {
        let _span = asip_obs::span("engine", "prepare");
        let d = DecodedVliw::new(machine, program)?;
        let mut entries: Vec<u32> = d.program.functions.iter().map(|f| f.entry).collect();
        let ctrl: Vec<_> = d
            .bundles
            .iter()
            .map(|m| ctrl_of(&d.ops[m.ops.0 as usize..m.ops.1 as usize], &mut entries))
            .collect();
        let map = discover(&ctrl, &entries);
        let tx = (0..map.blocks.len()).map(|_| OnceLock::new()).collect();
        let traces = TraceState::new(map.blocks.len());
        Ok(BlockVliw {
            d,
            map,
            tx,
            traces,
            fast_blocks: AtomicU64::new(0),
            slow_bundles: AtomicU64::new(0),
        })
    }

    /// The program this block compilation was built from.
    pub fn program(&self) -> &VliwProgram {
        &self.d.program
    }

    /// Blocks executed via the superop fast path so far.
    pub fn fast_blocks(&self) -> u64 {
        self.fast_blocks.load(Ordering::Relaxed)
    }

    /// Bundles executed via the interpretive slow path so far.
    pub fn slow_bundles(&self) -> u64 {
        self.slow_bundles.load(Ordering::Relaxed)
    }

    /// Superblock traces formed so far.
    pub fn traces_formed(&self) -> u64 {
        self.traces.formed.load(Ordering::Relaxed)
    }

    /// Superblock trace entries so far.
    pub fn trace_entries(&self) -> u64 {
        self.traces.entries.load(Ordering::Relaxed)
    }

    /// Superblock side exits (internal transfer mispredictions) so far.
    pub fn trace_side_exits(&self) -> u64 {
        self.traces.side_exits.load(Ordering::Relaxed)
    }

    /// Superblock entry-guard failures that fell back to block dispatch.
    pub fn trace_fallbacks(&self) -> u64 {
        self.traces.fallbacks.load(Ordering::Relaxed)
    }

    /// Translate block `bi` into a superop by statically replaying the
    /// slow path's per-bundle cost arithmetic from a clean entry.
    fn translate(&self, bi: usize) -> Superop {
        let d = &self.d;
        let blk = &self.map.blocks[bi];
        let (start, end) = (blk.start() as usize, blk.end() as usize);
        let has_ic = d.machine.icache.is_some();

        let mut fast = true;
        let mut sready = vec![0u64; d.nregs];
        let mut touch = vec![u64::MAX; d.nregs];
        let mut off = 0u64;
        let mut stalls = 0u64;
        let mut last_issue = 0u64;
        let mut idle_slots = 0u64;
        let mut fetch_bytes = 0u64;
        let mut act = ActivityDelta::default();
        let mut lines: Vec<u64> = Vec::new();
        let mut flags = Vec::with_capacity(end - start);
        let mut rset: Vec<u32> = Vec::new();
        let mut wset: Vec<u32> = Vec::new();

        for meta in &d.bundles[start..end] {
            last_issue = off;
            if has_ic {
                let f = &meta.fetch;
                if f.last_line - f.first_line >= 2 {
                    // Pathological straddle: leave the whole block to the
                    // exact per-fetch accounting of the slow path.
                    fast = false;
                }
                for l in f.first_line..=f.last_line {
                    if lines.last() != Some(&l) {
                        lines.push(l);
                    }
                }
            }
            fetch_bytes += u64::from(meta.fetch.bytes);

            // The decoded interlock, statically: stall to the latest
            // in-flight ready time over the touched set, commit, then
            // post the bundle's own writes at `issue + latency`.
            let il = &d.interlock[meta.interlock.0 as usize..meta.interlock.1 as usize];
            let mut ready_at = off;
            for &r in il {
                ready_at = ready_at.max(sready[r as usize]);
            }
            stalls += ready_at - off;
            off = ready_at;
            for &r in il {
                sready[r as usize] = 0;
                if touch[r as usize] == u64::MAX {
                    touch[r as usize] = off;
                }
            }

            rset.clear();
            wset.clear();
            let mut has_ld = false;
            let mut has_st = false;
            for op in &d.ops[meta.ops.0 as usize..meta.ops.1 as usize] {
                match op.kind {
                    ExecKind::Ldw { .. } => has_ld = true,
                    ExecKind::Stw { .. } => has_st = true,
                    _ => {}
                }
                for_each_read(op, &d.pools, &mut |r| rset.push(r));
                for_each_write(op, &d.pools, &mut |dst| {
                    if dst != 0 {
                        sready[dst as usize] = off + op.lat;
                        wset.push(dst);
                    }
                });
            }
            flags.push(BundleFlags {
                defer_writes: wset.iter().any(|w| rset.contains(w)),
                defer_stores: has_ld && has_st,
            });
            act.merge(&meta.act);
            idle_slots += meta.idle_slots;
            off += 1;
        }

        let live_out = sready
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != 0)
            .map(|(r, &t)| (r as u32, t))
            .collect();
        Superop {
            fast,
            total: off,
            stalls,
            last_issue,
            nbundles: (end - start) as u64,
            idle_slots,
            fetch_bytes,
            act,
            lines,
            live_out,
            flags,
            touch,
        }
    }

    /// Try to chain a superblock trace from hot loop head `head`: walk
    /// the profiled dominant-successor edges ([`grow_trace`]), then
    /// compose the chain into one superop by replaying the scoreboard
    /// arithmetic chain-globally. `None` when the head is unchainable
    /// (under two fast segments, or no confident successor).
    fn form_trace(&self, head: usize, threshold: u32) -> Option<SuperTrace> {
        let _span = asip_obs::span("engine", "trace_form");
        let ts = &self.traces;
        let conf = u64::from((threshold / 8).max(1));
        let mut edges: Vec<(u32, bool)> = Vec::new();
        let mut chain = grow_trace(&self.map, head, MAX_TRACE_BLOCKS, MAX_TRACE_PCS, |cur| {
            let (pc, taken) = ts.dominant(cur, conf)?;
            edges.push((pc, taken));
            Some(pc)
        });
        // Every segment must be fast-path-eligible; truncate at the
        // first one the translator refused.
        let bad = chain.iter().position(|&b| {
            !self.tx[b as usize]
                .get_or_init(|| self.translate(b as usize))
                .fast
        });
        if let Some(n) = bad {
            chain.truncate(n);
        }
        if chain.len() < 2 {
            return None;
        }
        edges.truncate(chain.len() - 1);

        // Replay the interlock arithmetic across the whole chain: the
        // per-block stall totals don't compose, because a stall depends
        // on scoreboard state carried in from earlier segments.
        let d = &self.d;
        let mut sready = vec![0u64; d.nregs];
        let mut touch = vec![u64::MAX; d.nregs];
        let mut off = 0u64;
        let mut stalls = 0u64;
        let mut branch = 0u64;
        let mut nbundles = 0u64;
        let mut idle_slots = 0u64;
        let mut fetch_bytes = 0u64;
        let mut act = ActivityDelta::default();
        let mut last_issue = 0u64;
        let mut lines: Vec<u64> = Vec::new();
        let mut flags: Vec<BundleFlags> = Vec::new();
        let mut segs: Vec<SegCum> = Vec::with_capacity(chain.len());
        for (k, &b) in chain.iter().enumerate() {
            let blk = &self.map.blocks[b as usize];
            let so = self.tx[b as usize].get().expect("translated above");
            let lines_lo = lines.len() as u32;
            lines.extend_from_slice(&so.lines);
            let flags_lo = flags.len() as u32;
            flags.extend_from_slice(&so.flags);
            nbundles += so.nbundles;
            idle_slots += so.idle_slots;
            fetch_bytes += so.fetch_bytes;
            act.merge(&so.act);
            for meta in &d.bundles[blk.start() as usize..blk.end() as usize] {
                last_issue = off;
                let il = &d.interlock[meta.interlock.0 as usize..meta.interlock.1 as usize];
                let mut ready_at = off;
                for &r in il {
                    ready_at = ready_at.max(sready[r as usize]);
                }
                stalls += ready_at - off;
                off = ready_at;
                for &r in il {
                    sready[r as usize] = 0;
                    if touch[r as usize] == u64::MAX {
                        touch[r as usize] = off;
                    }
                }
                for op in &d.ops[meta.ops.0 as usize..meta.ops.1 as usize] {
                    for_each_write(op, &d.pools, &mut |dst| {
                        if dst != 0 {
                            sready[dst as usize] = off + op.lat;
                        }
                    });
                }
                off += 1;
            }
            let live_out = sready
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t != 0)
                .map(|(r, &t)| (r as u32, t))
                .collect();
            let (expect_pc, expect_taken) = if k < edges.len() {
                edges[k]
            } else {
                (0, false)
            };
            segs.push(SegCum {
                total: off,
                stalls,
                branch,
                nbundles,
                idle_slots,
                fetch_bytes,
                act,
                lines_lo,
                lines_hi: lines.len() as u32,
                flags_lo,
                expect_pc,
                expect_taken,
                live_out,
            });
            if k < edges.len() && edges[k].1 {
                off += d.branch_penalty;
                branch += d.branch_penalty;
            }
        }

        let mut probe = lines.clone();
        probe.sort_unstable();
        probe.dedup();
        ts.count_formed();
        Some(SuperTrace {
            blocks: chain,
            segs,
            lines,
            probe,
            flags,
            touch,
            last_issue,
        })
    }

    /// Run the entry function over a fresh memory image with named
    /// workload inputs written in (unknown names are ignored, as in the
    /// reference loops). Observationally identical to
    /// [`crate::reference::run_vliw_reference`] on the same inputs — every
    /// [`SimResult`] field matches bit-for-bit.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised during execution.
    #[allow(clippy::too_many_lines)]
    pub fn run_with_inputs(
        &self,
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
        opts: SimOptions,
    ) -> Result<SimResult, SimError> {
        let _span = asip_obs::span("engine", "run");
        let d = &self.d;
        if args.len() != d.num_args as usize {
            return Err(SimError::BadArgs {
                expected: d.num_args,
                got: args.len() as u32,
            });
        }
        let mut image = crate::exec::initial_memory(d.machine.dmem_words, &d.program.globals);
        let memory: &mut [i32] = &mut image;
        crate::exec::write_inputs(memory, &d.program.globals, inputs);
        // Stack setup: arguments at the very top; SP points at the first.
        let top = memory.len() as u32;
        let mut sp = top - args.len() as u32;
        for (i, &a) in args.iter().enumerate() {
            memory[sp as usize + i] = a;
        }
        let mut lr: u32 = LR_HALT;

        let mut regs = vec![0i32; d.nregs];
        let mut ready = vec![0u64; d.nregs];
        let mut pending = vec![0i32; d.nregs];
        // The registers with a nonzero `ready` entry — the entry guard
        // prunes this instead of scanning the whole scoreboard.
        let mut inflight: Vec<u32> = Vec::new();
        let mut icache = d.machine.icache.map(ICache::new);
        let mut out = SimResult {
            output: Vec::new(),
            cycles: 0,
            interlock_stalls: 0,
            icache_stalls: 0,
            branch_stalls: 0,
            bundles_executed: 0,
            ops_executed: 0,
            activity: ActivityCounts::default(),
            icache_misses: 0,
            memory: Vec::new(),
        };

        // Reusable scratch, owned outside the dispatch loop.
        let mut stores: Vec<(i64, i32)> = Vec::new();
        let mut wbuf: Vec<(u32, i32)> = Vec::new();
        let mut argv: Vec<i32> = Vec::new();
        let mut cvals: Vec<i32> = Vec::new();
        let mut couts: Vec<i32> = Vec::new();
        // In-flight registers the trace tier admitted at entry (see the
        // admitted-register protocol at the trace exit).
        let mut admitted: Vec<u32> = Vec::new();

        let mut cycle: u64 = 0;
        let mut pc: u32 = d.entry_pc;
        let mut fast_blocks = 0u64;
        let mut slow_bundles = 0u64;
        let mut trace_entries = 0u64;
        let mut trace_side_exits = 0u64;
        let mut trace_fallbacks = 0u64;

        // Superop fast-path register access, shared by block dispatch
        // and trace segments. Reads are always architectural; writes go
        // through the register file directly unless the bundle's flags
        // demand end-of-bundle buffering.
        macro_rules! frd {
            ($s:expr) => {
                match *$s {
                    Src::Imm(v) => v,
                    Src::Reg(i) => regs[i as usize],
                }
            };
        }
        macro_rules! fwr {
            ($fl:expr, $d:expr, $v:expr) => {{
                let dst = $d as usize;
                if dst != 0 {
                    if $fl.defer_writes {
                        wbuf.push((dst as u32, $v));
                    } else {
                        regs[dst] = $v;
                    }
                }
            }};
        }
        // One superop-fast-path bundle: the full op match plus the
        // deferred flushes, writing the control outcome into the caller's
        // `$next_pc`/`$taken`/`$halted` locals. A macro (not a closure)
        // because it borrows half the interpreter state and must be able
        // to `return` simulation errors.
        macro_rules! exec_bundle {
            ($meta:expr, $bpc:expr, $fl:expr, $next_pc:ident, $taken:ident, $halted:ident) => {{
                let meta = $meta;
                let bpc: u32 = $bpc;
                let fl = $fl;
                let mut sp_next = sp;
                let mut lr_next = lr;
                stores.clear();
                wbuf.clear();
                for op in &d.ops[meta.ops.0 as usize..meta.ops.1 as usize] {
                    match &op.kind {
                        ExecKind::Ldw { dst, base, off } => {
                            let addr = i64::from(frd!(base)) + off;
                            if addr < 0 || addr as usize >= memory.len() {
                                return Err(SimError::MemFault { pc: bpc, addr });
                            }
                            let v = memory[addr as usize];
                            fwr!(fl, *dst, v);
                        }
                        ExecKind::Stw { val, base, off } => {
                            let v = frd!(val);
                            let addr = i64::from(frd!(base)) + off;
                            if addr < 0 || addr as usize >= memory.len() {
                                return Err(SimError::MemFault { pc: bpc, addr });
                            }
                            if fl.defer_stores {
                                stores.push((addr, v));
                            } else {
                                memory[addr as usize] = v;
                            }
                        }
                        ExecKind::Br { target } => {
                            $next_pc = *target;
                            $taken = true;
                        }
                        ExecKind::BrT { cond, target } => {
                            if frd!(cond) != 0 {
                                $next_pc = *target;
                                $taken = true;
                            }
                        }
                        ExecKind::BrF { cond, target } => {
                            if frd!(cond) == 0 {
                                $next_pc = *target;
                                $taken = true;
                            }
                        }
                        ExecKind::Call { entry } => {
                            lr_next = bpc + 1;
                            $next_pc = *entry;
                            $taken = true;
                        }
                        ExecKind::Ret => {
                            if lr == LR_HALT {
                                $halted = true;
                            } else if lr as usize >= d.bundles.len() {
                                return Err(SimError::WildReturn { pc: bpc });
                            } else {
                                $next_pc = lr;
                                $taken = true;
                            }
                        }
                        ExecKind::Halt => $halted = true,
                        ExecKind::Emit { src } => {
                            let v = frd!(src);
                            out.output.push(v);
                        }
                        ExecKind::AddSp { imm } => {
                            sp_next = (i64::from(sp) + imm) as u32;
                        }
                        ExecKind::MovFromSp { dst } => fwr!(fl, *dst, sp as i32),
                        ExecKind::MovFromLr { dst } => fwr!(fl, *dst, lr as i32),
                        ExecKind::MovToLr { src } => lr_next = frd!(src) as u32,
                        ExecKind::Mov { dst, src } => {
                            let v = frd!(src);
                            fwr!(fl, *dst, v);
                        }
                        ExecKind::Select { dst, c, a, b } => {
                            let c = frd!(c);
                            let a = frd!(a);
                            let b = frd!(b);
                            fwr!(fl, *dst, if c != 0 { a } else { b });
                        }
                        ExecKind::Custom { id, srcs, dsts } => {
                            argv.clear();
                            for s in &d.pools.srcs[srcs.0 as usize..srcs.1 as usize] {
                                argv.push(frd!(s));
                            }
                            let def = &d.program.custom_ops[*id as usize];
                            def.eval_into(&argv, &mut cvals, &mut couts)
                                .map_err(|e| match e {
                                    asip_isa::CustomOpError::Eval(_) => {
                                        SimError::DivideByZero { pc: bpc }
                                    }
                                    other => SimError::InvalidProgram(other.to_string()),
                                })?;
                            for (&dst, &v) in d.pools.dsts[dsts.0 as usize..dsts.1 as usize]
                                .iter()
                                .zip(couts.iter())
                            {
                                fwr!(fl, dst, v);
                            }
                        }
                        ExecKind::Nop => {}
                        ExecKind::Un { op, dst, a } => {
                            let v = op.eval1(frd!(a)).expect("unary arith");
                            fwr!(fl, *dst, v);
                        }
                        ExecKind::Bin { op, dst, a, b } => {
                            let x = frd!(a);
                            let y = frd!(b);
                            let v = op.eval2(x, y).map_err(|e| match e {
                                EvalError::DivideByZero => SimError::DivideByZero { pc: bpc },
                                EvalError::NotArithmetic => SimError::InvalidProgram(format!(
                                    "opcode {op} is not executable"
                                )),
                            })?;
                            fwr!(fl, *dst, v);
                        }
                    }
                }
                for &(dst, v) in &wbuf {
                    regs[dst as usize] = v;
                }
                for &(addr, v) in &stores {
                    memory[addr as usize] = v;
                }
                sp = sp_next;
                lr = lr_next;
            }};
        }

        'run: loop {
            let bi = self.map.block_of[pc as usize] as usize;
            let blk = &self.map.blocks[bi];

            // ---- Fast path: superop dispatch at a block boundary. ----
            'fast: {
                if pc != blk.start() {
                    break 'fast;
                }
                // Entry guard 1: commit arrived writes.
                inflight.retain(|&r| {
                    let t = ready[r as usize];
                    if t != 0 && t <= cycle {
                        regs[r as usize] = pending[r as usize];
                        ready[r as usize] = 0;
                        return false;
                    }
                    t != 0
                });
                let so = self.tx[bi].get_or_init(|| self.translate(bi));
                if !so.fast {
                    break 'fast;
                }
                // ---- Trace tier: superblock dispatch at a hot loop head. ----
                let ts = &self.traces;
                if blk.in_loop {
                    'trace: {
                        let tr = match ts.tx[bi].get() {
                            Some(Some(t)) => t,
                            // Judged unchainable: plain block dispatch,
                            // and no more heat bookkeeping.
                            Some(None) => break 'trace,
                            None => {
                                let heat = ts.heat[bi].fetch_add(1, Ordering::Relaxed) + 1;
                                if heat < opts.sb_threshold {
                                    break 'trace;
                                }
                                match ts.tx[bi]
                                    .get_or_init(|| self.form_trace(bi, opts.sb_threshold))
                                {
                                    Some(t) => t,
                                    None => break 'trace,
                                }
                            }
                        };
                        // Trace guard 1: first-touch admission over the
                        // whole chain (see the block guard 1b below).
                        if !inflight.is_empty()
                            && !crate::exec::admit_ok(&inflight, &ready, &tr.touch, cycle)
                        {
                            trace_fallbacks += 1;
                            break 'trace;
                        }
                        // Trace guard 2: every top-of-bundle cycle-limit
                        // check in the chain must be unreachable.
                        if cycle + tr.last_issue > opts.max_cycles {
                            trace_fallbacks += 1;
                            break 'trace;
                        }
                        // Trace guard 3: the chain's whole fetch-line
                        // union resident (read-only probe; hits never
                        // evict, so residency holds at every segment).
                        if let Some(ic) = icache.as_mut() {
                            if !tr.probe.iter().all(|&l| ic.probe(l)) {
                                trace_fallbacks += 1;
                                break 'trace;
                            }
                        }
                        // Admitted-register protocol, entry half: commit
                        // the values of in-flight writes the chain will
                        // touch, but keep them armed on the scoreboard —
                        // a side exit before the touch point must leave
                        // them observably in flight for the block tier.
                        admitted.clear();
                        for &r in &inflight {
                            if tr.touch[r as usize] != u64::MAX {
                                regs[r as usize] = pending[r as usize];
                                admitted.push(r);
                            }
                        }
                        trace_entries += 1;
                        let entry = cycle;
                        let mut seg_idx = 0usize;
                        let mut next_pc;
                        let mut taken;
                        let mut halted;
                        loop {
                            let sblk = &self.map.blocks[tr.blocks[seg_idx] as usize];
                            let seg = &tr.segs[seg_idx];
                            if let Some(ic) = icache.as_mut() {
                                for &l in &tr.lines[seg.lines_lo as usize..seg.lines_hi as usize] {
                                    ic.access_lines(l, l);
                                }
                            }
                            next_pc = sblk.end();
                            taken = false;
                            halted = false;
                            for (i, meta) in d.bundles[sblk.start() as usize..sblk.end() as usize]
                                .iter()
                                .enumerate()
                            {
                                exec_bundle!(
                                    meta,
                                    sblk.start() + i as u32,
                                    tr.flags[seg.flags_lo as usize + i],
                                    next_pc,
                                    taken,
                                    halted
                                );
                            }
                            if halted || seg_idx + 1 == tr.segs.len() {
                                break;
                            }
                            if next_pc != seg.expect_pc || taken != seg.expect_taken {
                                trace_side_exits += 1;
                                break;
                            }
                            seg_idx += 1;
                        }
                        // Trace exit after `seg_idx`: cumulative
                        // aggregates make any exit depth O(1).
                        let seg = &tr.segs[seg_idx];
                        out.bundles_executed += seg.nbundles;
                        out.ops_executed += seg.act.ops;
                        seg.act.apply(&mut out.activity);
                        out.activity.bundles += seg.nbundles;
                        out.activity.idle_slots += seg.idle_slots;
                        out.activity.fetch_bytes += seg.fetch_bytes;
                        out.interlock_stalls += seg.stalls;
                        out.branch_stalls += seg.branch;
                        cycle = entry + seg.total;
                        fast_blocks += seg_idx as u64 + 1;
                        // Admitted-register protocol, exit half: drop
                        // entries that have landed *without* re-committing
                        // (the chain may have overwritten the register
                        // since the entry commit; `pending` is stale).
                        // Entries still in the future — admitted ahead of
                        // a touch point a side exit never reached — stay
                        // armed, their pending value still equal to the
                        // committed one.
                        for &r in &admitted {
                            if ready[r as usize] <= cycle {
                                ready[r as usize] = 0;
                            }
                        }
                        if !admitted.is_empty() {
                            inflight.retain(|&r| ready[r as usize] != 0);
                        }
                        if halted {
                            break 'run;
                        }
                        if taken {
                            cycle += d.branch_penalty;
                            out.branch_stalls += d.branch_penalty;
                        }
                        for &(r, t) in &seg.live_out {
                            let t = entry + t;
                            if t > cycle {
                                ready[r as usize] = t;
                                pending[r as usize] = regs[r as usize];
                                inflight.push(r);
                            }
                        }
                        pc = next_pc;
                        if pc as usize >= d.bundles.len() {
                            return Err(SimError::WildReturn { pc });
                        }
                        continue 'run;
                    }
                }
                // Entry guard 1b: a write still in flight is admissible if
                // it lands at/before the block's first touch of its
                // register — the interlock would not have stalled, so the
                // static trace holds and the write can commit now (nothing
                // reads it earlier). Untouched registers stay in flight.
                if !inflight.is_empty() {
                    if !crate::exec::admit_ok(&inflight, &ready, &so.touch, cycle) {
                        break 'fast;
                    }
                    inflight.retain(|&r| {
                        if so.touch[r as usize] != u64::MAX {
                            regs[r as usize] = pending[r as usize];
                            ready[r as usize] = 0;
                            false
                        } else {
                            true
                        }
                    });
                }
                // Entry guard 2: every top-of-bundle cycle-limit check in
                // the block must be unreachable.
                if cycle + so.last_issue > opts.max_cycles {
                    break 'fast;
                }
                // Entry guard 3: every fetch line resident (probe first —
                // read-only — then touch, so a miss leaves LRU state
                // untouched for the slow path's exact replay).
                if let Some(ic) = icache.as_mut() {
                    if !so.lines.iter().all(|&l| ic.probe(l)) {
                        break 'fast;
                    }
                    for &l in &so.lines {
                        ic.access_lines(l, l);
                    }
                }

                let entry = cycle;
                let mut next_pc = blk.end();
                let mut taken = false;
                let mut halted = false;
                for (i, meta) in d.bundles[blk.start() as usize..blk.end() as usize]
                    .iter()
                    .enumerate()
                {
                    exec_bundle!(
                        meta,
                        blk.start() + i as u32,
                        so.flags[i],
                        next_pc,
                        taken,
                        halted
                    );
                }

                // Feed the trace tier's successor profile: loop blocks
                // only, and a halt has no successor edge.
                if !halted && blk.in_loop {
                    ts.record_succ(bi, next_pc, taken);
                }

                // Block exit: apply the precomputed aggregates in O(1).
                out.bundles_executed += so.nbundles;
                out.ops_executed += so.act.ops;
                so.act.apply(&mut out.activity);
                out.activity.bundles += so.nbundles;
                out.activity.idle_slots += so.idle_slots;
                out.activity.fetch_bytes += so.fetch_bytes;
                out.interlock_stalls += so.stalls;
                cycle = entry + so.total;
                fast_blocks += 1;
                if halted {
                    break 'run;
                }
                if taken {
                    cycle += d.branch_penalty;
                    out.branch_stalls += d.branch_penalty;
                }
                // Re-arm writes still in flight (value already in place).
                for &(r, t) in &so.live_out {
                    let t = entry + t;
                    if t > cycle {
                        ready[r as usize] = t;
                        pending[r as usize] = regs[r as usize];
                        inflight.push(r);
                    }
                }
                pc = next_pc;
                if pc as usize >= d.bundles.len() {
                    return Err(SimError::WildReturn { pc });
                }
                continue 'run;
            }

            // ---- Slow path: one bundle, cycle by cycle. ----
            if cycle > opts.max_cycles {
                return Err(SimError::CycleLimit);
            }
            slow_bundles += 1;
            let meta = &d.bundles[pc as usize];
            let fetch = &meta.fetch;
            if let Some(ic) = icache.as_mut() {
                let misses = ic.access_lines(fetch.first_line, fetch.last_line);
                if misses > 0 {
                    let pen = u64::from(misses) * u64::from(ic.miss_penalty());
                    cycle += pen;
                    out.icache_stalls += pen;
                    out.icache_misses += u64::from(misses);
                }
            }
            out.activity.fetch_bytes += u64::from(fetch.bytes);

            let interlock = &d.interlock[meta.interlock.0 as usize..meta.interlock.1 as usize];
            let mut ready_at = cycle;
            for &r in interlock {
                let t = ready[r as usize];
                if t > ready_at {
                    ready_at = t;
                }
            }
            if ready_at > cycle {
                out.interlock_stalls += ready_at - cycle;
                cycle = ready_at;
            }
            for &r in interlock {
                let r = r as usize;
                if ready[r] != 0 {
                    regs[r] = pending[r];
                    ready[r] = 0;
                }
            }

            macro_rules! rd {
                ($s:expr) => {
                    match *$s {
                        Src::Imm(v) => v,
                        Src::Reg(i) => regs[i as usize],
                    }
                };
            }
            macro_rules! wr {
                ($d:expr, $v:expr, $lat:expr) => {{
                    let dst = $d as usize;
                    if dst != 0 {
                        pending[dst] = $v;
                        ready[dst] = cycle + $lat;
                        inflight.push(dst as u32);
                    }
                }};
            }

            stores.clear();
            let mut next_pc = pc + 1;
            let mut taken = false;
            let mut halted = false;
            let mut sp_next = sp;
            let mut lr_next = lr;

            for op in &d.ops[meta.ops.0 as usize..meta.ops.1 as usize] {
                let lat = op.lat;
                match &op.kind {
                    ExecKind::Ldw { dst, base, off } => {
                        let addr = i64::from(rd!(base)) + off;
                        if addr < 0 || addr as usize >= memory.len() {
                            return Err(SimError::MemFault { pc, addr });
                        }
                        let v = memory[addr as usize];
                        wr!(*dst, v, lat);
                    }
                    ExecKind::Stw { val, base, off } => {
                        let v = rd!(val);
                        let addr = i64::from(rd!(base)) + off;
                        if addr < 0 || addr as usize >= memory.len() {
                            return Err(SimError::MemFault { pc, addr });
                        }
                        stores.push((addr, v));
                    }
                    ExecKind::Br { target } => {
                        next_pc = *target;
                        taken = true;
                    }
                    ExecKind::BrT { cond, target } => {
                        if rd!(cond) != 0 {
                            next_pc = *target;
                            taken = true;
                        }
                    }
                    ExecKind::BrF { cond, target } => {
                        if rd!(cond) == 0 {
                            next_pc = *target;
                            taken = true;
                        }
                    }
                    ExecKind::Call { entry } => {
                        lr_next = pc + 1;
                        next_pc = *entry;
                        taken = true;
                    }
                    ExecKind::Ret => {
                        if lr == LR_HALT {
                            halted = true;
                        } else if lr as usize >= d.bundles.len() {
                            return Err(SimError::WildReturn { pc });
                        } else {
                            next_pc = lr;
                            taken = true;
                        }
                    }
                    ExecKind::Halt => halted = true,
                    ExecKind::Emit { src } => {
                        let v = rd!(src);
                        out.output.push(v);
                    }
                    ExecKind::AddSp { imm } => {
                        sp_next = (i64::from(sp) + imm) as u32;
                    }
                    ExecKind::MovFromSp { dst } => wr!(*dst, sp as i32, lat),
                    ExecKind::MovFromLr { dst } => wr!(*dst, lr as i32, lat),
                    ExecKind::MovToLr { src } => lr_next = rd!(src) as u32,
                    ExecKind::Mov { dst, src } => {
                        let v = rd!(src);
                        wr!(*dst, v, lat);
                    }
                    ExecKind::Select { dst, c, a, b } => {
                        let c = rd!(c);
                        let a = rd!(a);
                        let b = rd!(b);
                        wr!(*dst, if c != 0 { a } else { b }, lat);
                    }
                    ExecKind::Custom { id, srcs, dsts } => {
                        argv.clear();
                        for s in &d.pools.srcs[srcs.0 as usize..srcs.1 as usize] {
                            argv.push(rd!(s));
                        }
                        let def = &d.program.custom_ops[*id as usize];
                        def.eval_into(&argv, &mut cvals, &mut couts)
                            .map_err(|e| match e {
                                asip_isa::CustomOpError::Eval(_) => SimError::DivideByZero { pc },
                                other => SimError::InvalidProgram(other.to_string()),
                            })?;
                        for (&dst, &v) in d.pools.dsts[dsts.0 as usize..dsts.1 as usize]
                            .iter()
                            .zip(couts.iter())
                        {
                            wr!(dst, v, lat);
                        }
                    }
                    ExecKind::Nop => {}
                    ExecKind::Un { op, dst, a } => {
                        let v = op.eval1(rd!(a)).expect("unary arith");
                        wr!(*dst, v, lat);
                    }
                    ExecKind::Bin { op, dst, a, b } => {
                        let x = rd!(a);
                        let y = rd!(b);
                        let v = op.eval2(x, y).map_err(|e| match e {
                            EvalError::DivideByZero => SimError::DivideByZero { pc },
                            EvalError::NotArithmetic => {
                                SimError::InvalidProgram(format!("opcode {op} is not executable"))
                            }
                        })?;
                        wr!(*dst, v, lat);
                    }
                }
            }

            for &(addr, v) in &stores {
                memory[addr as usize] = v;
            }
            sp = sp_next;
            lr = lr_next;
            out.bundles_executed += 1;
            out.ops_executed += meta.act.ops;
            meta.act.apply(&mut out.activity);
            out.activity.bundles += 1;
            out.activity.idle_slots += meta.idle_slots;

            if halted {
                cycle += 1;
                break 'run;
            }
            cycle += 1;
            if taken {
                cycle += d.branch_penalty;
                out.branch_stalls += d.branch_penalty;
            }
            pc = next_pc;
            if pc as usize >= d.bundles.len() {
                return Err(SimError::WildReturn { pc });
            }
        }

        self.fast_blocks.fetch_add(fast_blocks, Ordering::Relaxed);
        self.slow_bundles.fetch_add(slow_bundles, Ordering::Relaxed);
        self.traces
            .count_run(trace_entries, trace_side_exits, trace_fallbacks);
        out.cycles = cycle;
        out.activity.cycles = cycle;
        // The result carries only the static-data region: the stack above
        // the watermark is scratch, and dropping it keeps cached
        // `SimResult`s (and their codec) at kilobytes instead of the
        // machine's whole dmem.
        out.memory = crate::exec::static_data(memory, d.program.data_words);
        Ok(out)
    }
}
