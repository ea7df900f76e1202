//! The block-compiled scalar engine: superops over decoded instructions.
//!
//! See the module docs of [`crate::block`] for the design. The scalar
//! specifics:
//!
//! * **Folded issue groups.** Within a block the 1–2-wide in-order front
//!   end's grouping is a pure function of the instruction sequence: the
//!   static trace replays the structural checks (group width, sealing
//!   control ops, the precomputed `pair_with_prev` bit) and the hazard
//!   scoreboard, so the fast path adds one precomputed cycle total and
//!   group count instead of re-deriving them per instruction.
//! * **Entry group state.** Unlike the VLIW engine, a block's timing
//!   depends on the issue group it is entered with. The possibilities
//!   collapse to two traces: a sealed/full/empty group behaves like an
//!   empty group one cycle later (`s0` with a +1 shift), and a half-open
//!   group whose member is the fall-through predecessor uses the
//!   alternate `s1p` trace (translated only when the first instruction's
//!   pairing bit makes that state reachable with a distinct outcome).
//! * **Direct architectural state.** Scalar semantics are sequential —
//!   the slow path already writes registers and memory immediately —
//!   so the fast path needs no deferred-write machinery at all; the
//!   scoreboard exists only in the static trace and the live-out set.

use super::{ctrl_of, TraceState, MAX_TRACE_BLOCKS, MAX_TRACE_PCS};
use crate::exec::{DecodedScalar, ExecKind, Src, LR_HALT};
use crate::icache::ICache;
use crate::run::{SimError, SimOptions, SimResult};
use asip_dbt::blocks::{discover, grow_trace, BlockMap};
use asip_isa::{ActivityCounts, EvalError, LatClass, MachineDescription, ScalarProgram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One statically replayed pass over a block's instructions from a fixed
/// entry group state: every cycle the front end spends, with no dynamic
/// input left except the exit branch direction.
#[derive(Debug)]
struct ScalarTrace {
    /// Cycles from the (shifted) trace base to the last group's issue
    /// cycle; the dynamic halt/taken adjustment is applied at runtime.
    total: u64,
    /// Data-hazard stall cycles folded into `total`.
    stalls: u64,
    /// Issue groups opened (the `bundles_executed` delta).
    groups: u64,
    /// Trace-local offset of the last instruction's top-of-loop
    /// cycle-limit check (an upper bound — see the entry guard).
    last_issue: u64,
    /// Group length left open on a fall-through exit.
    exit_len: u32,
    /// Writes whose results land after the last issue cycle:
    /// `(flat reg, trace-local ready offset)`.
    live_out: Vec<(u32, u64)>,
    /// Per-register issue offset of the trace's first touch (read or
    /// write; `u64::MAX` = untouched). Interlock lists include
    /// destinations, so every register the block observes or redefines
    /// has an entry — the entry guard uses it to admit writes still in
    /// flight that land before they could matter.
    touch: Vec<u64>,
}

/// One translated basic block: up to two entry-state traces plus the
/// state-independent aggregates.
#[derive(Debug)]
struct Superop {
    /// Whether the fast path may run this block at all (the translator
    /// refuses instructions straddling 3+ I-cache lines).
    fast: bool,
    /// Trace from an empty entry group.
    s0: ScalarTrace,
    /// Trace from a half-open group holding the fall-through
    /// predecessor; present only when the first instruction can pair.
    s1p: Option<ScalarTrace>,
    /// Deduplicated I-cache lines the block fetches, in access order.
    lines: Vec<u64>,
    /// Summed encoded fetch bytes.
    fetch_bytes: u64,
    /// Per-class op counts, indexed by `LatClass` order.
    class: [u64; 7],
    /// Summed pre-rounded custom-datapath area.
    custom_area: u64,
    /// Instruction count (the `ops_executed` delta).
    nops: u64,
}

/// Cumulative per-segment exit state of a `SuperTrace` (see the VLIW
/// engine's `SegCum` for the protocol): cycle fields are chain-global
/// offsets from the shifted trace base, with earlier internal
/// taken-branch penalties folded in and the exiting transition's own
/// dynamic adjustment excluded.
#[derive(Debug)]
struct SegCum {
    /// Cycles from the trace base to this segment's exit.
    total: u64,
    /// Interlock stalls folded into `total` so far.
    stalls: u64,
    /// Issue groups opened so far.
    groups: u64,
    /// Internal taken-branch penalties folded into `total` so far.
    branch: u64,
    /// Instructions executed so far.
    nops: u64,
    /// Encoded fetch bytes so far.
    fetch_bytes: u64,
    /// Per-class op counts so far, indexed by [`LatClass`] order.
    class: [u64; 7],
    /// Summed pre-rounded custom-datapath area so far.
    custom_area: u64,
    /// This segment's slice of [`SuperTrace::lines`], touched MRU-wise
    /// on segment entry.
    lines_lo: u32,
    lines_hi: u32,
    /// The profiled control transfer out of this segment; any other
    /// transfer side-exits. Unused on the last segment.
    expect_pc: u32,
    expect_taken: bool,
    /// Issue-group state on a fall-through exit at this segment.
    exit_len: u32,
    exit_seals: bool,
    /// Writes whose results land after this segment's exit:
    /// `(flat reg, chain-global ready offset)`.
    live_out: Vec<(u32, u64)>,
}

/// A profile-promoted superblock over the scalar pipeline: a chain of
/// fast blocks statically replayed as one trace from an empty entry
/// group, with per-segment cumulative state for exact side exits.
#[derive(Debug)]
struct SuperTrace {
    /// Block index of each segment, in chain order.
    blocks: Vec<u32>,
    segs: Vec<SegCum>,
    /// Concatenated per-segment fetch lines (adjacent-deduplicated
    /// within a segment).
    lines: Vec<u64>,
    /// Sorted, deduplicated union of `lines` for the read-only entry
    /// residency probe.
    probe: Vec<u64>,
    /// Whole-trace first-touch offsets (chain-global) for entry
    /// admission of in-flight writes.
    touch: Vec<u64>,
    /// Chain-global upper bound on every top-of-loop cycle-limit check.
    last_issue: u64,
}

/// A [`ScalarProgram`] block-compiled against a [`MachineDescription`]:
/// basic blocks are discovered up front ([`asip_dbt::blocks`]) and
/// translated to `Superop`s on first visit, hot loop heads are chained
/// into `SuperTrace`s once they pass [`SimOptions::sb_threshold`]
/// dispatches, and [`BlockScalar::run_with_inputs`] is the threaded-code
/// dispatch loop over them, with an exact per-instruction slow path.
#[derive(Debug)]
pub struct BlockScalar {
    d: DecodedScalar,
    map: BlockMap,
    /// Translate-on-first-visit cache, one slot per block. `OnceLock`
    /// because runs take `&self`.
    tx: Vec<OnceLock<Superop>>,
    /// The superblock tier's profile/promotion state.
    traces: TraceState<SuperTrace>,
    fast_blocks: AtomicU64,
    slow_insts: AtomicU64,
}

impl BlockScalar {
    /// Validate and pre-decode `program`, then partition it into basic
    /// blocks. Translation to superops happens lazily on first visit.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if the program fails static validation
    /// against the machine.
    pub fn new(
        machine: &MachineDescription,
        program: &ScalarProgram,
    ) -> Result<BlockScalar, SimError> {
        let _span = asip_obs::span("engine", "prepare");
        let d = DecodedScalar::new(machine, program)?;
        let mut entries: Vec<u32> = d.program.functions.iter().map(|f| f.entry).collect();
        let ctrl: Vec<_> = d
            .insts
            .iter()
            .map(|i| ctrl_of(std::slice::from_ref(&i.op), &mut entries))
            .collect();
        let map = discover(&ctrl, &entries);
        let tx = (0..map.blocks.len()).map(|_| OnceLock::new()).collect();
        let traces = TraceState::new(map.blocks.len());
        Ok(BlockScalar {
            d,
            map,
            tx,
            traces,
            fast_blocks: AtomicU64::new(0),
            slow_insts: AtomicU64::new(0),
        })
    }

    /// The program this block compilation was built from.
    pub fn program(&self) -> &ScalarProgram {
        &self.d.program
    }

    /// Blocks executed via the superop fast path so far.
    pub fn fast_blocks(&self) -> u64 {
        self.fast_blocks.load(Ordering::Relaxed)
    }

    /// Instructions executed via the interpretive slow path so far.
    pub fn slow_insts(&self) -> u64 {
        self.slow_insts.load(Ordering::Relaxed)
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

    /// Statically replay the slow path's grouping and hazard
    /// arithmetic over block `bi` from `entry_len` group members (all
    /// fetch lines assumed resident — the entry guard checks that).
    fn trace(&self, bi: usize, entry_len: usize) -> ScalarTrace {
        let d = &self.d;
        let blk = &self.map.blocks[bi];
        let width = d.width;

        let mut sready = vec![0u64; d.nregs];
        let mut touch = vec![u64::MAX; d.nregs];
        let mut c = 0u64;
        let mut len = entry_len;
        let mut stalls = 0u64;
        let mut groups = 0u64;
        let mut last_issue = 0u64;

        for inst in &d.insts[blk.start() as usize..blk.end() as usize] {
            last_issue = c;
            // Structural: group full or the adjacent pair has no
            // distinct-slot assignment. (Sealing never fires mid-block:
            // only control ops seal and control ops end blocks.)
            if len >= width || (len == 1 && !inst.pair_with_prev) {
                c += 1;
                len = 0;
            }
            // Data hazards, on the trace-local scoreboard.
            let il = &d.interlock[inst.interlock.0 as usize..inst.interlock.1 as usize];
            let mut ready = c;
            for &r in il {
                ready = ready.max(sready[r as usize]);
            }
            if ready > c {
                stalls += ready - c;
                c = ready;
                len = 0;
            }
            for &r in il {
                if touch[r as usize] == u64::MAX {
                    touch[r as usize] = c;
                }
            }
            len += 1;
            if len == 1 {
                groups += 1;
            }
            super::for_each_write(&inst.op, &d.pools, &mut |dst| {
                if dst != 0 {
                    let slot = &mut sready[dst as usize];
                    *slot = (*slot).max(c + inst.op.lat);
                }
            });
        }

        let live_out = sready
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t > c)
            .map(|(r, &t)| (r as u32, t))
            .collect();
        ScalarTrace {
            total: c,
            stalls,
            groups,
            last_issue,
            exit_len: len as u32,
            live_out,
            touch,
        }
    }

    /// Translate block `bi`: the state-independent aggregates plus the
    /// entry-state trace(s).
    fn translate(&self, bi: usize) -> Superop {
        let d = &self.d;
        let blk = &self.map.blocks[bi];
        let has_ic = d.machine.icache.is_some();

        let mut fast = !blk.is_empty();
        let mut lines: Vec<u64> = Vec::new();
        let mut fetch_bytes = 0u64;
        let mut class = [0u64; 7];
        let mut custom_area = 0u64;
        for inst in &d.insts[blk.start() as usize..blk.end() as usize] {
            let f = &inst.fetch;
            if has_ic {
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
            fetch_bytes += u64::from(f.bytes);
            class[inst.class as usize] += 1;
            custom_area += u64::from(inst.custom_area);
        }

        let s0 = self.trace(bi, 0);
        let s1p = (fast && d.width > 1 && d.insts[blk.start() as usize].pair_with_prev)
            .then(|| self.trace(bi, 1));
        Superop {
            fast,
            s0,
            s1p,
            lines,
            fetch_bytes,
            class,
            custom_area,
            nops: blk.len() as u64,
        }
    }

    /// Try to chain a superblock trace from hot loop head `head` along
    /// the profiled dominant-successor edges, composing the chain into
    /// one trace by replaying the grouping and hazard arithmetic
    /// chain-globally from an empty entry group (issue-group state and
    /// the scoreboard both thread across internal transitions). `None`
    /// when the head is unchainable.
    #[allow(clippy::too_many_lines)]
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

        let d = &self.d;
        let width = d.width;
        let mut sready = vec![0u64; d.nregs];
        let mut touch = vec![u64::MAX; d.nregs];
        let mut c = 0u64;
        let mut len = 0usize;
        let mut closed = false;
        let mut stalls = 0u64;
        let mut groups = 0u64;
        let mut branch = 0u64;
        let mut nops = 0u64;
        let mut fetch_bytes = 0u64;
        let mut class = [0u64; 7];
        let mut custom_area = 0u64;
        let mut last_issue = 0u64;
        let mut lines: Vec<u64> = Vec::new();
        let mut segs: Vec<SegCum> = Vec::with_capacity(chain.len());
        for (k, &b) in chain.iter().enumerate() {
            let blk = &self.map.blocks[b as usize];
            let so = self.tx[b as usize].get().expect("translated above");
            let lines_lo = lines.len() as u32;
            lines.extend_from_slice(&so.lines);
            nops += so.nops;
            fetch_bytes += so.fetch_bytes;
            for (t, &n) in class.iter_mut().zip(so.class.iter()) {
                *t += n;
            }
            custom_area += so.custom_area;
            for inst in &d.insts[blk.start() as usize..blk.end() as usize] {
                last_issue = c;
                // Structural: `closed` can only be set at a segment
                // boundary (only control ops seal, and they end blocks).
                if len >= width || closed || (len == 1 && !inst.pair_with_prev) {
                    c += 1;
                    len = 0;
                    closed = false;
                }
                let il = &d.interlock[inst.interlock.0 as usize..inst.interlock.1 as usize];
                let mut ready = c;
                for &r in il {
                    ready = ready.max(sready[r as usize]);
                }
                if ready > c {
                    stalls += ready - c;
                    c = ready;
                    len = 0;
                    closed = false;
                }
                for &r in il {
                    if touch[r as usize] == u64::MAX {
                        touch[r as usize] = c;
                    }
                }
                len += 1;
                if len == 1 {
                    groups += 1;
                }
                super::for_each_write(&inst.op, &d.pools, &mut |dst| {
                    if dst != 0 {
                        let slot = &mut sready[dst as usize];
                        *slot = (*slot).max(c + inst.op.lat);
                    }
                });
            }
            let live_out = sready
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t > c)
                .map(|(r, &t)| (r as u32, t))
                .collect();
            let (expect_pc, expect_taken) = if k < edges.len() {
                edges[k]
            } else {
                (0, false)
            };
            segs.push(SegCum {
                total: c,
                stalls,
                groups,
                branch,
                nops,
                fetch_bytes,
                class,
                custom_area,
                lines_lo,
                lines_hi: lines.len() as u32,
                expect_pc,
                expect_taken,
                exit_len: len as u32,
                exit_seals: d.insts[blk.end() as usize - 1].seals,
                live_out,
            });
            if k < edges.len() {
                if edges[k].1 {
                    branch += d.branch_penalty;
                    c += 1 + d.branch_penalty;
                    len = 0;
                    closed = false;
                } else {
                    closed = d.insts[blk.end() as usize - 1].seals;
                }
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
            touch,
            last_issue,
        })
    }

    /// Run the entry function over a fresh memory image with named
    /// workload inputs written in (unknown names are ignored, as in the
    /// reference loops). Observationally identical to
    /// [`crate::reference::run_scalar_reference`] on the same inputs —
    /// every [`SimResult`] field matches bit-for-bit.
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
        let mut reg_ready = vec![0u64; d.nregs];
        // The registers whose `reg_ready` entry may still be in the
        // future — the entry guard prunes this instead of scanning the
        // whole scoreboard. (Stale past entries are harmless.)
        let mut carry: Vec<u32> = Vec::new();
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
        let mut argv: Vec<i32> = Vec::new();
        let mut cvals: Vec<i32> = Vec::new();
        let mut couts: Vec<i32> = Vec::new();
        let mut class_counts = [0u64; 7];

        let mut cycle: u64 = 0;
        let mut group_len: usize = 0;
        let mut group_closed = false;
        let mut pc: u32 = d.entry_pc;
        let width = d.width;
        let mut fast_blocks = 0u64;
        let mut slow_insts = 0u64;
        let mut trace_entries = 0u64;
        let mut trace_side_exits = 0u64;
        let mut trace_fallbacks = 0u64;

        macro_rules! new_group {
            ($advance:expr) => {{
                cycle += $advance;
                group_len = 0;
                group_closed = false;
            }};
        }

        // Superop fast-path register access, shared by block dispatch
        // and trace segments: scalar semantics are sequential, so both
        // reads and writes are direct.
        macro_rules! frd {
            ($s:expr) => {
                match *$s {
                    Src::Imm(v) => v,
                    Src::Reg(i) => regs[i as usize],
                }
            };
        }
        macro_rules! fwr {
            ($d:expr, $v:expr) => {{
                let dst = $d as usize;
                if dst != 0 {
                    regs[dst] = $v;
                }
            }};
        }
        // One superop-fast-path instruction: the full op match, writing
        // the control outcome into the caller's `$next_pc`/`$taken`/
        // `$halted` locals. A macro (not a closure) because it borrows
        // half the interpreter state and must be able to `return`
        // simulation errors.
        macro_rules! exec_inst {
            ($inst:expr, $ipc:expr, $next_pc:ident, $taken:ident, $halted:ident) => {{
                let inst = $inst;
                let ipc: u32 = $ipc;
                match &inst.op.kind {
                    ExecKind::Ldw { dst, base, off } => {
                        let addr = i64::from(frd!(base)) + off;
                        if addr < 0 || addr as usize >= memory.len() {
                            return Err(SimError::MemFault { pc: ipc, addr });
                        }
                        let v = memory[addr as usize];
                        fwr!(*dst, v);
                    }
                    ExecKind::Stw { val, base, off } => {
                        let v = frd!(val);
                        let addr = i64::from(frd!(base)) + off;
                        if addr < 0 || addr as usize >= memory.len() {
                            return Err(SimError::MemFault { pc: ipc, addr });
                        }
                        memory[addr as usize] = v;
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
                        lr = ipc + 1;
                        $next_pc = *entry;
                        $taken = true;
                    }
                    ExecKind::Ret => {
                        if lr == LR_HALT {
                            $halted = true;
                        } else if lr as usize >= d.insts.len() {
                            return Err(SimError::WildReturn { pc: ipc });
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
                        sp = (i64::from(sp) + imm) as u32;
                    }
                    ExecKind::MovFromSp { dst } => fwr!(*dst, sp as i32),
                    ExecKind::MovFromLr { dst } => fwr!(*dst, lr as i32),
                    ExecKind::MovToLr { src } => lr = frd!(src) as u32,
                    ExecKind::Mov { dst, src } => {
                        let v = frd!(src);
                        fwr!(*dst, v);
                    }
                    ExecKind::Select { dst, c, a, b } => {
                        let c = frd!(c);
                        let a = frd!(a);
                        let b = frd!(b);
                        fwr!(*dst, if c != 0 { a } else { b });
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
                                    SimError::DivideByZero { pc: ipc }
                                }
                                other => SimError::InvalidProgram(other.to_string()),
                            })?;
                        for (&dst, &v) in d.pools.dsts[dsts.0 as usize..dsts.1 as usize]
                            .iter()
                            .zip(couts.iter())
                        {
                            fwr!(dst, v);
                        }
                    }
                    ExecKind::Nop => {}
                    ExecKind::Un { op, dst, a } => {
                        let v = op.eval1(frd!(a)).expect("unary arith");
                        fwr!(*dst, v);
                    }
                    ExecKind::Bin { op, dst, a, b } => {
                        let x = frd!(a);
                        let y = frd!(b);
                        let v = op.eval2(x, y).map_err(|e| match e {
                            EvalError::DivideByZero => SimError::DivideByZero { pc: ipc },
                            EvalError::NotArithmetic => {
                                SimError::InvalidProgram(format!("opcode {op} is not executable"))
                            }
                        })?;
                        fwr!(*dst, v);
                    }
                }
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
                // Entry guard 1: drop writes that have already landed.
                carry.retain(|&r| reg_ready[r as usize] > cycle);
                let so = self.tx[bi].get_or_init(|| self.translate(bi));
                if !so.fast {
                    break 'fast;
                }
                // ---- Trace tier: superblock dispatch at a hot loop head. ----
                let ts = &self.traces;
                if blk.in_loop {
                    'trace: {
                        // Entry group state → base shift, as for the
                        // block traces below; a half-open pairable
                        // group is left to the block tier's
                        // specialized `s1p` trace.
                        let shift = if group_closed || group_len >= width {
                            1u64
                        } else if group_len == 0 {
                            0u64
                        } else {
                            break 'trace;
                        };
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
                        let base = cycle + shift;
                        // Trace guard 1: first-touch admission over the
                        // whole chain (see the block guard 1b below).
                        // Admitted writes stay on the scoreboard: their
                        // values are already architectural, and a side
                        // exit before the touch point must leave their
                        // future ready times observable.
                        if !carry.is_empty()
                            && !crate::exec::admit_ok(&carry, &reg_ready, &tr.touch, base)
                        {
                            trace_fallbacks += 1;
                            break 'trace;
                        }
                        // Trace guard 2: every top-of-loop cycle-limit
                        // check in the chain must be unreachable.
                        if base + tr.last_issue > opts.max_cycles {
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
                        trace_entries += 1;
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
                            for (i, inst) in d.insts[sblk.start() as usize..sblk.end() as usize]
                                .iter()
                                .enumerate()
                            {
                                exec_inst!(inst, sblk.start() + i as u32, next_pc, taken, halted);
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
                        out.bundles_executed += seg.groups;
                        out.activity.bundles += seg.groups;
                        out.ops_executed += seg.nops;
                        for (t, &n) in class_counts.iter_mut().zip(seg.class.iter()) {
                            *t += n;
                        }
                        out.activity.custom_area_executed += seg.custom_area;
                        out.activity.fetch_bytes += seg.fetch_bytes;
                        out.interlock_stalls += seg.stalls;
                        out.branch_stalls += seg.branch;
                        cycle = base + seg.total;
                        fast_blocks += seg_idx as u64 + 1;
                        if halted {
                            cycle += 1;
                            break 'run;
                        }
                        if taken {
                            out.branch_stalls += d.branch_penalty;
                            new_group!(1 + d.branch_penalty);
                        } else {
                            group_len = seg.exit_len as usize;
                            group_closed = seg.exit_seals;
                        }
                        // Re-arm writes still landing after the exit.
                        for &(r, t) in &seg.live_out {
                            let t = base + t;
                            if t > cycle {
                                reg_ready[r as usize] = t;
                                carry.push(r);
                            }
                        }
                        pc = next_pc;
                        if pc as usize >= d.insts.len() {
                            return Err(SimError::WildReturn { pc });
                        }
                        continue 'run;
                    }
                }
                // Entry group state → (trace, base-cycle shift). A full
                // or sealed group forces a structural break before the
                // first instruction, which is exactly the empty-group
                // trace one cycle later.
                let (tr, shift) = if group_closed || group_len >= width {
                    (&so.s0, 1u64)
                } else if group_len == 1 {
                    match &so.s1p {
                        Some(t) => (t, 0),
                        None => (&so.s0, 1),
                    }
                } else {
                    (&so.s0, 0)
                };
                // Entry guard 1b: a write still in flight is admissible
                // if it lands at/before the trace's first touch of its
                // register — the interlock would not have stalled, so
                // the static trace holds. Register values are already
                // architectural; the stale future `reg_ready` entry for
                // a touched register is dropped from the carry set (the
                // block's exit cycle passes it), while untouched
                // registers stay in flight.
                if !carry.is_empty() {
                    let base = cycle + shift;
                    if !crate::exec::admit_ok(&carry, &reg_ready, &tr.touch, base) {
                        break 'fast;
                    }
                    carry.retain(|&r| tr.touch[r as usize] == u64::MAX);
                }
                // Entry guard 2: every top-of-loop cycle-limit check in
                // the block must be unreachable (`shift + last_issue` is
                // an upper bound on each check's offset).
                if cycle + shift + tr.last_issue > opts.max_cycles {
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
                for (i, inst) in d.insts[blk.start() as usize..blk.end() as usize]
                    .iter()
                    .enumerate()
                {
                    exec_inst!(inst, blk.start() + i as u32, next_pc, taken, halted);
                }

                // Feed the trace tier's successor profile: loop blocks
                // only, and a halt has no successor edge.
                if !halted && blk.in_loop {
                    ts.record_succ(bi, next_pc, taken);
                }

                // Block exit: apply the precomputed aggregates in O(1).
                out.bundles_executed += tr.groups;
                out.activity.bundles += tr.groups;
                out.ops_executed += so.nops;
                for (c, &n) in class_counts.iter_mut().zip(so.class.iter()) {
                    *c += n;
                }
                out.activity.custom_area_executed += so.custom_area;
                out.activity.fetch_bytes += so.fetch_bytes;
                out.interlock_stalls += tr.stalls;
                let base = entry + shift;
                cycle = base + tr.total;
                fast_blocks += 1;
                if halted {
                    cycle += 1;
                    break 'run;
                }
                if taken {
                    out.branch_stalls += d.branch_penalty;
                    new_group!(1 + d.branch_penalty);
                } else {
                    group_len = tr.exit_len as usize;
                    group_closed = d.insts[blk.end() as usize - 1].seals;
                }
                // Re-arm writes still landing after the exit cycle.
                for &(r, t) in &tr.live_out {
                    let t = base + t;
                    if t > cycle {
                        reg_ready[r as usize] = t;
                        carry.push(r);
                    }
                }
                pc = next_pc;
                if pc as usize >= d.insts.len() {
                    return Err(SimError::WildReturn { pc });
                }
                continue 'run;
            }

            // ---- Slow path: one instruction, cycle by cycle. ----
            if cycle > opts.max_cycles {
                return Err(SimError::CycleLimit);
            }
            slow_insts += 1;
            let inst = &d.insts[pc as usize];
            let op = &inst.op;
            let fetch = &inst.fetch;

            if let Some(ic) = icache.as_mut() {
                let misses = ic.access_lines(fetch.first_line, fetch.last_line);
                if misses > 0 {
                    let pen = u64::from(misses) * u64::from(ic.miss_penalty());
                    let bump = u64::from(group_len != 0);
                    new_group!(bump + pen);
                    out.icache_stalls += pen;
                    out.icache_misses += u64::from(misses);
                }
            }
            out.activity.fetch_bytes += u64::from(fetch.bytes);

            if group_len >= width || group_closed || (group_len == 1 && !inst.pair_with_prev) {
                new_group!(1);
            }

            let mut ready = cycle;
            for &r in &d.interlock[inst.interlock.0 as usize..inst.interlock.1 as usize] {
                let t = reg_ready[r as usize];
                if t > ready {
                    ready = t;
                }
            }
            if ready > cycle {
                out.interlock_stalls += ready - cycle;
                new_group!(ready - cycle);
            }

            group_len += 1;
            if group_len == 1 {
                out.bundles_executed += 1;
                out.activity.bundles += 1;
            }
            out.ops_executed += 1;
            class_counts[inst.class as usize] += 1;
            out.activity.custom_area_executed += u64::from(inst.custom_area);

            macro_rules! rd {
                ($s:expr) => {
                    match *$s {
                        Src::Imm(v) => v,
                        Src::Reg(i) => regs[i as usize],
                    }
                };
            }
            let lat = op.lat;
            macro_rules! wr {
                ($d:expr, $v:expr) => {{
                    let dst = $d as usize;
                    if dst != 0 {
                        regs[dst] = $v;
                        let slot = &mut reg_ready[dst];
                        let t = cycle + lat;
                        if *slot < t {
                            *slot = t;
                        }
                        carry.push(dst as u32);
                    }
                }};
            }

            let mut next_pc = pc + 1;
            let mut taken = false;
            let mut halted = false;

            match &op.kind {
                ExecKind::Ldw { dst, base, off } => {
                    let addr = i64::from(rd!(base)) + off;
                    if addr < 0 || addr as usize >= memory.len() {
                        return Err(SimError::MemFault { pc, addr });
                    }
                    let v = memory[addr as usize];
                    wr!(*dst, v);
                }
                ExecKind::Stw { val, base, off } => {
                    let v = rd!(val);
                    let addr = i64::from(rd!(base)) + off;
                    if addr < 0 || addr as usize >= memory.len() {
                        return Err(SimError::MemFault { pc, addr });
                    }
                    memory[addr as usize] = v;
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
                    lr = pc + 1;
                    next_pc = *entry;
                    taken = true;
                }
                ExecKind::Ret => {
                    if lr == LR_HALT {
                        halted = true;
                    } else if lr as usize >= d.insts.len() {
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
                    sp = (i64::from(sp) + imm) as u32;
                }
                ExecKind::MovFromSp { dst } => wr!(*dst, sp as i32),
                ExecKind::MovFromLr { dst } => wr!(*dst, lr as i32),
                ExecKind::MovToLr { src } => lr = rd!(src) as u32,
                ExecKind::Mov { dst, src } => {
                    let v = rd!(src);
                    wr!(*dst, v);
                }
                ExecKind::Select { dst, c, a, b } => {
                    let c = rd!(c);
                    let a = rd!(a);
                    let b = rd!(b);
                    wr!(*dst, if c != 0 { a } else { b });
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
                        wr!(dst, v);
                    }
                }
                ExecKind::Nop => {}
                ExecKind::Un { op, dst, a } => {
                    let v = op.eval1(rd!(a)).expect("unary arith");
                    wr!(*dst, v);
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
                    wr!(*dst, v);
                }
            }

            if halted {
                cycle += 1;
                break 'run;
            }
            if taken {
                out.branch_stalls += d.branch_penalty;
                new_group!(1 + d.branch_penalty);
            } else if inst.seals {
                group_closed = true;
            }
            pc = next_pc;
            if pc as usize >= d.insts.len() {
                return Err(SimError::WildReturn { pc });
            }
        }

        self.fast_blocks.fetch_add(fast_blocks, Ordering::Relaxed);
        self.slow_insts.fetch_add(slow_insts, Ordering::Relaxed);
        self.traces
            .count_run(trace_entries, trace_side_exits, trace_fallbacks);
        out.cycles = cycle;
        out.activity.cycles = cycle;
        out.activity.alu_ops += class_counts[LatClass::Alu as usize];
        out.activity.mul_ops += class_counts[LatClass::Mul as usize];
        out.activity.div_ops += class_counts[LatClass::Div as usize];
        out.activity.mem_ops += class_counts[LatClass::Mem as usize];
        out.activity.branch_ops += class_counts[LatClass::Branch as usize];
        out.activity.copy_ops += class_counts[LatClass::Copy as usize];
        out.activity.custom_ops += class_counts[LatClass::Custom as usize];
        out.activity.idle_slots =
            (out.activity.bundles * width as u64).saturating_sub(out.ops_executed);
        // The result carries only the static-data region: the stack above
        // the watermark is scratch, and dropping it keeps cached
        // `SimResult`s (and their codec) at kilobytes instead of the
        // machine's whole dmem.
        out.memory = crate::exec::static_data(memory, d.program.data_words);
        Ok(out)
    }
}
