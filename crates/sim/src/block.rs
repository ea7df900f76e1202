//! The block-compiled execution engine: decode the program **once** into
//! flat tables, translate basic blocks into precomputed superops, then
//! execute a threaded-code dispatch loop over them, with hot loops chained
//! into superblock traces. One engine, [`BlockEngine`], serves both target
//! kinds; it is generic over the program type, whose issue model (the
//! VLIW bundle interlock, or 1–2-wide scalar issue groups) supplies the
//! only timing rules that differ.
//!
//! Decoding hoists per-op table lookups out of the loop, but a per-pc
//! interpreter still pays per-cycle dispatch, scoreboard probes and
//! I-cache bookkeeping on every op of every iteration. Hot kernels spend
//! nearly all cycles in a handful of basic blocks whose *timing* is
//! input-independent: within a straight-line block the schedule fixes
//! every interlock stall, every fetch line and every issue-group boundary.
//! So each block is translated on first visit (keyed by its entry pc) into
//! a **superop**, by replaying the issue model's timing rule statically
//! over a block-local scoreboard:
//!
//! * block-level precomputed costs — total cycles, folded interlock
//!   stalls, issue groups, aggregated activity and fetch statistics —
//!   applied in O(1) at block exit instead of per pc;
//! * the deduplicated I-cache **line set** the block fetches, probed
//!   read-only at entry ([`crate::ICache::probe`]);
//! * the **live-out** write set: registers whose results are still in
//!   flight when the block exits, re-armed on the scoreboard so timing
//!   composes exactly across blocks.
//!
//! A scalar block's timing also depends on the issue group it is entered
//! with. The possibilities collapse to two replays: a sealed, full or
//! unpairable group behaves like an empty group one cycle later, and a
//! half-open group whose member is the fall-through predecessor gets its
//! own replay, translated when first needed. A VLIW bundle is its own
//! group, so a VLIW block has one.
//!
//! Execution is the same on both tiers and both models: one op executor
//! reads the register file directly and writes each result straight to
//! it, except where a VLIW bundle's op order could observe a same-bundle
//! write or store (those pcs defer theirs to the bundle's end), and the
//! slow path also posts each result on the scoreboard.
//!
//! A superop is valid only under its **entry assumptions**: every write
//! still in flight at block entry lands at or before the block's first
//! touch of its register (so no interlock the replay didn't already fold
//! in can fire), every fetch line resident, and the cycle limit out of
//! reach. Each assumption is checked by a cheap guard at block entry; any
//! failure — and any block the translator refuses (pathological
//! multi-line I-cache straddles) — falls back to an exact per-pc cycle
//! loop over the decoded tables for **one pc at a time**, re-attempting
//! fast dispatch at the next block boundary. Correctness therefore never
//! depends on the fast path covering everything, and the differential
//! suites pin this engine to the interpretive oracle ([`crate::reference`])
//! with bit-identical [`SimResult`]s, with the trace tier forming traces
//! and with it held back.
//!
//! Block discovery (leader analysis + iterative Tarjan SCC loop marking)
//! is the promoted, reusable analysis in [`asip_dbt::blocks`] — the same
//! machinery family the rebundling translator seeds.
//!
//! # The superblock tier
//!
//! A profile-directed trace tier sits above block dispatch. The
//! dispatcher counts how often each loop-head block is entered
//! (`TraceState::heat`) and keeps a one-slot majority sketch of each loop
//! block's dominant successor (`TraceState::succ`).
//! Past a promotion threshold ([`crate::SimOptions::sb_threshold`]) the
//! head is chained along confident dominant edges
//! ([`asip_dbt::blocks::grow_trace`]) into a **superblock**: the same
//! static replay run *chain-globally* (per-block stall totals don't
//! compose — stalls depend on scoreboard and issue-group state carried
//! across segments), its aggregates kept cumulatively per segment, and
//! the I-cache line sets unioned into one read-only entry probe. A block's
//! superop is simply a chain of one segment, so both tiers share the
//! guards and the segment loop. Each internal control transfer is guarded
//! against the profiled expectation: a mismatch is a **side exit** — the
//! cumulative per-segment state makes any exit O(1) — and any entry-guard
//! failure falls back to plain block dispatch, so correctness again never
//! depends on the tier firing.

use crate::exec::{
    for_each_write, initial_memory, static_data, write_inputs, ActivityDelta, Decoded, DecodedOp,
    ExecKind, Issue, IssueModel, Src, LR, LR_HALT, SP,
};
use crate::icache::ICache;
use crate::run::{SimError, SimOptions, SimResult};
use asip_dbt::blocks::{discover, grow_trace, BlockMap, Ctrl};
use asip_isa::{CustomOpError, EvalError, GlobalSym, MachineDescription};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

static TRACE_FORMED: asip_obs::Counter = asip_obs::Counter::new("sim.trace.formed");
static TRACE_ENTRIES: asip_obs::Counter = asip_obs::Counter::new("sim.trace.entries");
static TRACE_SIDE_EXITS: asip_obs::Counter = asip_obs::Counter::new("sim.trace.side_exits");
static TRACE_FALLBACKS: asip_obs::Counter = asip_obs::Counter::new("sim.trace.fallbacks");

/// Longest block chain a superblock trace may cover. Chains may unroll
/// a loop through its own head: every revisit folded into the trace is
/// a dispatch round saved.
const MAX_TRACE_BLOCKS: usize = 16;
/// Largest pc footprint (bundle/instruction count) a trace may cover.
const MAX_TRACE_PCS: u32 = 64;

/// Tier counters of one [`BlockEngine`], summed over its runs so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks executed via the superop fast path, trace segments included.
    pub fast_blocks: u64,
    /// Bundles (VLIW) or instructions (scalar) executed by the exact
    /// per-pc slow path.
    pub slow_pcs: u64,
    /// Superblock traces formed.
    pub traces_formed: u64,
    /// Superblock trace entries.
    pub trace_entries: u64,
    /// Superblock side exits (internal transfer mispredictions).
    pub trace_side_exits: u64,
    /// Superblock entry-guard failures that fell back to block dispatch.
    pub trace_fallbacks: u64,
}

/// Runtime profile and promotion state for the superblock tier. All state
/// is atomic or [`OnceLock`]-guarded because runs take `&self`: one engine
/// may serve runs on several threads at once.
#[derive(Debug)]
struct TraceState<T> {
    /// Per-block dispatch counter, bumped at hot-loop-head entries until
    /// the block's trace slot is decided.
    heat: Vec<AtomicU32>,
    /// Per-block packed Boyer–Moore majority sketch of the dominant
    /// successor edge: high 32 bits hold `(next_pc << 1) | taken`, low
    /// 32 bits a confidence count. Relaxed read-modify-write without
    /// compare-and-swap — a lost update under contention only delays
    /// confidence, never corrupts the majority invariant we rely on
    /// (the sketch is advisory; mispredictions side-exit).
    succ: Vec<AtomicU64>,
    /// Formed traces, one slot per head block; `None` = the head was
    /// judged unchainable (too short, unconfident successors) — don't
    /// retry.
    tx: Vec<OnceLock<Option<T>>>,
}

impl<T> TraceState<T> {
    fn new(nblocks: usize) -> TraceState<T> {
        TraceState {
            heat: (0..nblocks).map(|_| AtomicU32::new(0)).collect(),
            succ: (0..nblocks).map(|_| AtomicU64::new(0)).collect(),
            tx: (0..nblocks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Fold one observed exit edge of loop block `bi` into its sketch.
    #[inline]
    fn record_succ(&self, bi: usize, next_pc: u32, taken: bool) {
        if next_pc >= 1 << 31 {
            return;
        }
        let key = (u64::from(next_pc) << 1) | u64::from(taken);
        let slot = &self.succ[bi];
        let cur = slot.load(Ordering::Relaxed);
        let (k, c) = (cur >> 32, cur & 0xffff_ffff);
        let new = if k == key && c < u64::from(u32::MAX) {
            cur + 1
        } else if c <= 1 {
            (key << 32) | 1
        } else {
            cur - 1
        };
        slot.store(new, Ordering::Relaxed);
    }

    /// Block `bi`'s dominant successor edge, if its confidence count has
    /// reached `conf`.
    #[inline]
    fn dominant(&self, bi: usize, conf: u64) -> Option<(u32, bool)> {
        let cur = self.succ[bi].load(Ordering::Relaxed);
        if cur & 0xffff_ffff < conf {
            return None;
        }
        let key = cur >> 32;
        Some(((key >> 1) as u32, key & 1 == 1))
    }
}

/// Cumulative exit state after one segment of a [`Chain`]: everything
/// needed to leave the chain there — normally via the last segment, or
/// early via a side exit — in O(1). Cycle fields are offsets from the
/// chain's entry, with the taken-branch penalties of *earlier* internal
/// transfers folded in and the exiting transfer's own excluded, exactly
/// mirroring block-by-block execution.
#[derive(Debug)]
struct Seg<G> {
    /// Issue timing at the segment's last issue point: its cycle, the
    /// stalls and groups so far, and the group a fall-through leaves open.
    at: Issue<G>,
    /// Internal taken-branch penalties so far.
    branch: u64,
    /// Encoded fetch bytes so far.
    fetch_bytes: u64,
    /// Activity deltas so far (op counts included).
    act: ActivityDelta,
    /// End of this segment's slice of [`Chain::lines`], which starts where
    /// the previous segment's ends.
    lines_end: u32,
    /// The segment block's ops: one slice across its pcs.
    ops: (u32, u32),
    /// The pc after the segment's block (its fall-through successor).
    fall: u32,
    /// The profiled control transfer out of this segment, `(next pc,
    /// taken)`; executing any other side-exits. Unused on the last one.
    expect: (u32, bool),
    /// Writes still in flight at the segment's exit: `(flat reg, ready
    /// offset)`, re-armed at the actual exit cycle.
    live_out: Vec<(u32, u64)>,
}

/// A chain of basic blocks statically replayed from one entry issue
/// state: a block's superop (one segment) or a superblock trace. Valid
/// only under its entry guards (see the module docs).
#[derive(Debug)]
struct Chain<G> {
    /// Whether the fast path may run it at all: the translator refuses
    /// empty blocks and pcs straddling 3+ I-cache lines.
    fast: bool,
    /// One segment per block, in chain order (a trace head may recur: a
    /// short loop unrolls through itself up to the caps).
    segs: Vec<Seg<G>>,
    /// Concatenated per-segment fetch lines (adjacent-deduplicated
    /// within a segment), touched MRU-wise on segment entry.
    lines: Vec<u64>,
    /// Sorted, deduplicated union of `lines` for the read-only entry
    /// residency probe. Hits never evict, so residency of the whole
    /// union at entry implies residency at every segment.
    probe: Vec<u64>,
    /// Per-register offset of the chain's first touch (read or write;
    /// `u64::MAX` = untouched), for entry admission of in-flight writes.
    touch: Vec<u64>,
    /// Offset of the last pc's top-of-loop cycle-limit check — an upper
    /// bound over every check in the chain.
    last_issue: u64,
}

/// Control outcome of the pcs executed so far.
#[derive(Debug, Clone, Copy)]
struct Flow {
    next_pc: u32,
    taken: bool,
    halted: bool,
}

impl Flow {
    #[inline(always)]
    fn jump(&mut self, target: u32) {
        self.next_pc = target;
        self.taken = true;
    }
}

/// A program block-compiled against a [`MachineDescription`] — a
/// [`VliwProgram`](asip_isa::VliwProgram) or a
/// [`ScalarProgram`](asip_isa::ScalarProgram), whose issue model it
/// follows. Basic blocks are discovered up front ([`asip_dbt::blocks`])
/// and translated to superops on first visit, hot loop heads are chained
/// into superblock traces once they pass [`SimOptions::sb_threshold`]
/// dispatches, and [`BlockEngine::run_with_inputs`] is the threaded-code
/// dispatch loop over them, with an exact per-pc slow path.
#[derive(Debug)]
pub struct BlockEngine<P: IssueModel> {
    d: Decoded,
    map: BlockMap,
    /// Translate-on-first-visit superops, one pair of slots per block
    /// (keyed by the block's entry pc through `map.block_of`): entered
    /// with an empty issue group, and with a half-open one. `OnceLock`
    /// because runs take `&self`.
    tx: Vec<[OnceLock<Chain<P::Group>>; 2]>,
    /// The superblock tier's profile/promotion state.
    traces: TraceState<Chain<P::Group>>,
    stats: Mutex<BlockStats>,
}

impl<P: IssueModel> BlockEngine<P> {
    /// Validate and pre-decode `program`, then partition it into basic
    /// blocks. Translation to superops happens lazily on first visit.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if the program fails static validation
    /// against the machine.
    pub fn new(machine: &MachineDescription, program: &P) -> Result<Self, SimError> {
        let _span = asip_obs::span("engine", "prepare");
        program.validate(machine)?;
        let d = program.decode(machine);
        let mut entries = d.entries.clone();
        let ctrl: Vec<Ctrl> = (0..d.pcs.len() as u32)
            .map(|pc| ctrl_of(d.ops_of(pc), &mut entries))
            .collect();
        let map = discover(&ctrl, &entries);
        let nblocks = map.blocks.len();
        Ok(BlockEngine {
            d,
            map,
            tx: (0..nblocks).map(|_| Default::default()).collect(),
            traces: TraceState::new(nblocks),
            stats: Mutex::default(),
        })
    }

    /// The program's global data directory.
    pub(crate) fn globals(&self) -> &[GlobalSym] {
        &self.d.globals
    }

    /// Tier counters summed over every run so far.
    pub fn stats(&self) -> BlockStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block `bi`'s superop for an empty (or, with `half_open`, a
    /// half-open) entry group, translated on first use.
    fn block(&self, bi: usize, half_open: bool) -> &Chain<P::Group> {
        self.tx[bi][usize::from(half_open)]
            .get_or_init(|| self.replay(&[bi as u32], &[], half_open))
    }

    /// Statically replay the issue model over the chain `blocks`, whose
    /// internal control transfers are `edges` (one per block but the
    /// last), from an empty or half-open entry group, with every fetch
    /// line assumed resident (the entry guard checks that): the cycles,
    /// stalls, groups and aggregates of each segment, the first touch of
    /// every register and the writes still in flight at each exit.
    fn replay(&self, blocks: &[u32], edges: &[(u32, bool)], half_open: bool) -> Chain<P::Group> {
        let d = &self.d;
        let has_ic = d.machine.icache.is_some();
        let mut t = Issue::<P::Group>::default();
        if half_open {
            t.group = P::HALF_OPEN;
        }
        let mut sready = vec![0u64; d.nregs];
        let mut touch = vec![u64::MAX; d.nregs];
        let (mut fast, mut last_issue, mut branch, mut fetch_bytes) = (true, 0, 0, 0);
        let mut act = ActivityDelta::default();
        let mut lines: Vec<u64> = Vec::new();
        let mut segs = Vec::with_capacity(blocks.len());
        for (k, &b) in blocks.iter().enumerate() {
            let blk = &self.map.blocks[b as usize];
            fast &= !blk.is_empty();
            let lines_lo = lines.len();
            let lo = d.pcs.get(blk.start() as usize).map_or(0, |m| m.ops.0);
            let mut ops = (lo, lo);
            for pc in blk.start()..blk.end() {
                let meta = &d.pcs[pc as usize];
                ops.1 = meta.ops.1;
                let f = meta.fetch;
                if has_ic {
                    // A pathological straddle leaves the whole chain to
                    // the exact per-fetch accounting of the slow path.
                    fast &= f.last_line - f.first_line < 2;
                    for l in f.first_line..=f.last_line {
                        if lines[lines_lo..].last() != Some(&l) {
                            lines.push(l);
                        }
                    }
                }
                fetch_bytes += u64::from(f.bytes);
                act.merge(&meta.act);
                last_issue = t.cycle;
                P::issue(d, &mut t, &sready, pc);
                for &r in d.interlock_of(pc) {
                    if touch[r as usize] == u64::MAX {
                        touch[r as usize] = t.cycle;
                    }
                }
                for op in d.ops_of(pc) {
                    let at = t.cycle + u64::from(op.lat);
                    for_each_write(op, &d.pools, &mut |r| sready[r as usize] = at);
                }
                P::issued(d, &mut t, pc);
            }
            let live_out = sready
                .iter()
                .enumerate()
                .filter(|&(_, &at)| at > t.cycle)
                .map(|(r, &at)| (r as u32, at))
                .collect();
            let expect = edges.get(k).copied().unwrap_or_default();
            segs.push(Seg {
                at: t,
                branch,
                fetch_bytes,
                act,
                lines_end: lines.len() as u32,
                ops,
                fall: blk.end(),
                expect,
                live_out,
            });
            if expect.1 {
                t.cycle += P::CLOSE + d.branch_penalty;
                t.group = P::Group::default();
                branch += d.branch_penalty;
            }
        }
        let mut probe = lines.clone();
        probe.sort_unstable();
        probe.dedup();
        Chain {
            fast,
            segs,
            lines,
            probe,
            touch,
            last_issue,
        }
    }

    /// Try to chain a superblock trace from hot loop head `head`: walk
    /// the profiled dominant-successor edges ([`grow_trace`]), then replay
    /// the chain from an empty entry group. `None` when the head is
    /// unchainable (under two fast segments, or no confident successor).
    fn form_trace(&self, head: usize, threshold: u32) -> Option<Chain<P::Group>> {
        let _span = asip_obs::span("engine", "trace_form");
        let conf = u64::from((threshold / 8).max(1));
        let mut edges: Vec<(u32, bool)> = Vec::new();
        let mut chain = grow_trace(&self.map, head, MAX_TRACE_BLOCKS, MAX_TRACE_PCS, |cur| {
            let (pc, taken) = self.traces.dominant(cur, conf)?;
            edges.push((pc, taken));
            Some(pc)
        });
        // Every segment must be fast-path-eligible; truncate at the
        // first one the translator refused.
        if let Some(n) = chain
            .iter()
            .position(|&b| !self.block(b as usize, false).fast)
        {
            chain.truncate(n);
        }
        if chain.len() < 2 {
            return None;
        }
        edges.truncate(chain.len() - 1);
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .traces_formed += 1;
        TRACE_FORMED.add(1);
        Some(self.replay(&chain, &edges, false))
    }

    /// Run the entry function over a fresh memory image with named
    /// workload inputs written in (unknown names are ignored, as in the
    /// reference loops). Observationally identical to the reference loop
    /// of the program's target kind ([`crate::reference`]) on the same
    /// inputs — every [`SimResult`] field matches bit-for-bit.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised during execution.
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
        let mut image = initial_memory(d.machine.dmem_words, &d.globals);
        write_inputs(&mut image, &d.globals, inputs);
        // Stack setup: arguments at the very top; SP points at the first.
        let sp = (image.len() - args.len()) as u32;
        image[sp as usize..].copy_from_slice(args);
        let mut st = State {
            memory: &mut image,
            regs: vec![0; d.nregs],
            ready: vec![0; d.nregs],
            inflight: Vec::new(),
            sp,
            lr: LR_HALT,
            t: Issue::default(),
            icache: d.machine.icache.map(ICache::new),
            out: SimResult::default(),
            wbuf: Vec::new(),
            stores: Vec::new(),
            argv: Vec::new(),
            cvals: Vec::new(),
            couts: Vec::new(),
        };
        let mut tally = BlockStats::default();
        let mut pc = d.entry_pc;
        loop {
            let flow = 'step: {
                let bi = self.map.block_of[pc as usize] as usize;
                let blk = &self.map.blocks[bi];
                // ---- Fast path: superop dispatch at a block boundary. ----
                'fast: {
                    if pc != blk.start() {
                        break 'fast;
                    }
                    // Entry guard 1: drop writes that have landed.
                    let (ready, now) = (&st.ready, st.t.cycle);
                    st.inflight.retain(|&r| ready[r as usize] > now);
                    let (half_open, shift) = P::entry(d, st.t.group, pc);
                    let so = self.block(bi, half_open);
                    if !so.fast {
                        break 'fast;
                    }
                    let base = st.t.cycle + shift;
                    // ---- Trace tier: superblock dispatch at a hot loop
                    // head; traces are replayed from an empty group. ----
                    if blk.in_loop && !half_open {
                        'trace: {
                            let tr = match self.traces.tx[bi].get() {
                                Some(Some(t)) => t,
                                // Judged unchainable: plain block dispatch,
                                // and no more heat bookkeeping.
                                Some(None) => break 'trace,
                                None => {
                                    let heat =
                                        self.traces.heat[bi].fetch_add(1, Ordering::Relaxed) + 1;
                                    if heat < opts.sb_threshold {
                                        break 'trace;
                                    }
                                    let slot = &self.traces.tx[bi];
                                    match slot
                                        .get_or_init(|| self.form_trace(bi, opts.sb_threshold))
                                    {
                                        Some(t) => t,
                                        None => break 'trace,
                                    }
                                }
                            };
                            if !st.admits(tr, base, opts.max_cycles) {
                                tally.trace_fallbacks += 1;
                                break 'trace;
                            }
                            tally.trace_entries += 1;
                            let (flow, segs) = st.run_chain::<P>(d, tr, base)?;
                            tally.fast_blocks += segs as u64;
                            tally.trace_side_exits +=
                                u64::from(!flow.halted && segs < tr.segs.len());
                            break 'step flow;
                        }
                    }
                    if !st.admits(so, base, opts.max_cycles) {
                        break 'fast;
                    }
                    let (flow, _) = st.run_chain::<P>(d, so, base)?;
                    tally.fast_blocks += 1;
                    // Feed the trace tier's successor profile: loop blocks
                    // only, and a halt has no successor edge.
                    if !flow.halted && blk.in_loop {
                        self.traces.record_succ(bi, flow.next_pc, flow.taken);
                    }
                    break 'step flow;
                }
                // ---- Slow path: one pc, cycle by cycle. ----
                if st.t.cycle > opts.max_cycles {
                    return Err(SimError::CycleLimit);
                }
                tally.slow_pcs += 1;
                st.slow_step::<P>(d, pc)?
            };
            if flow.halted {
                break;
            }
            pc = flow.next_pc;
            if pc as usize >= d.pcs.len() {
                return Err(SimError::WildReturn { pc });
            }
        }

        self.count_run(&tally);
        let State { mut out, t, .. } = st;
        out.cycles = t.cycle;
        out.interlock_stalls = t.stalls;
        out.bundles_executed = t.groups;
        out.activity.cycles = t.cycle;
        out.activity.bundles = t.groups;
        // Every issue group (bundle) has `width` slots, each holding at
        // most one executed op.
        out.activity.idle_slots = (t.groups * d.width).saturating_sub(out.ops_executed);
        // The result carries only the static-data region: the stack above
        // the watermark is scratch, and dropping it keeps cached
        // `SimResult`s (and their codec) at kilobytes instead of the
        // machine's whole dmem.
        out.memory = static_data(&image, d.data_words);
        Ok(out)
    }

    /// Fold one run's tier tallies into the engine's and the
    /// process-global counters.
    fn count_run(&self, tally: &BlockStats) {
        for (counter, n) in [
            (&TRACE_ENTRIES, tally.trace_entries),
            (&TRACE_SIDE_EXITS, tally.trace_side_exits),
            (&TRACE_FALLBACKS, tally.trace_fallbacks),
        ] {
            if n != 0 {
                counter.add(n);
            }
        }
        let mut s = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        s.fast_blocks += tally.fast_blocks;
        s.slow_pcs += tally.slow_pcs;
        s.trace_entries += tally.trace_entries;
        s.trace_side_exits += tally.trace_side_exits;
        s.trace_fallbacks += tally.trace_fallbacks;
    }
}

/// One run's machine: architectural state, the ready-time scoreboard,
/// issue timing, the I-cache, the result counters and reusable scratch.
struct State<'m, G> {
    memory: &'m mut [i32],
    regs: Vec<i32>,
    /// Per-register cycle at which its last write lands; entries in the
    /// past are stale and harmless.
    ready: Vec<u64>,
    /// The registers whose `ready` entry may still be in the future — the
    /// entry guards prune this instead of scanning the whole scoreboard.
    inflight: Vec<u32>,
    sp: u32,
    lr: u32,
    t: Issue<G>,
    icache: Option<ICache>,
    out: SimResult,
    /// A deferring pc's results and stores, applied at its end.
    wbuf: Vec<(u32, i32)>,
    stores: Vec<(usize, i32)>,
    argv: Vec<i32>,
    cvals: Vec<i32>,
    couts: Vec<i32>,
}

impl<G: Copy + Default + PartialEq> State<'_, G> {
    /// Run chain `ch`, its entry guards passed, from cycle `base`: segment
    /// by segment until the last one, a halt or a side exit, then leave
    /// through the exiting segment's cumulative state. Returns the control
    /// outcome and the number of segments run.
    #[inline(always)]
    fn run_chain<P: IssueModel<Group = G>>(
        &mut self,
        d: &Decoded,
        ch: &Chain<G>,
        base: u64,
    ) -> Result<(Flow, usize), SimError> {
        let mut k = 0;
        let mut lines_lo = 0;
        let flow = loop {
            let seg = &ch.segs[k];
            let lines_hi = seg.lines_end as usize;
            if let Some(ic) = self.icache.as_mut() {
                for &l in &ch.lines[lines_lo..lines_hi] {
                    ic.access_lines(l, l);
                }
            }
            lines_lo = lines_hi;
            let mut flow = Flow {
                next_pc: seg.fall,
                taken: false,
                halted: false,
            };
            self.exec::<P, false>(d, seg.ops.0, seg.ops.1, &mut flow)?;
            if flow.halted || k + 1 == ch.segs.len() || (flow.next_pc, flow.taken) != seg.expect {
                break flow;
            }
            k += 1;
        };
        // Cumulative aggregates make any exit depth O(1).
        let seg = &ch.segs[k];
        self.t.cycle = base + seg.at.cycle;
        self.t.stalls += seg.at.stalls;
        self.t.groups += seg.at.groups;
        self.t.group = seg.at.group;
        self.out.branch_stalls += seg.branch;
        self.out.ops_executed += seg.act.ops;
        seg.act.apply(&mut self.out.activity);
        self.out.activity.fetch_bytes += seg.fetch_bytes;
        self.retire::<P>(&flow, d.branch_penalty);
        // Re-arm writes still in flight (their values are already in the
        // register file).
        for &(r, at) in &seg.live_out {
            let at = base + at;
            if at > self.t.cycle {
                self.ready[r as usize] = at;
                self.inflight.push(r);
            }
        }
        Ok((flow, k + 1))
    }

    /// The entry guards of chain `ch` entered at cycle `base`.
    #[inline(always)]
    fn admits(&self, ch: &Chain<G>, base: u64, max_cycles: u64) -> bool {
        // 1. First-touch admission: a write still in flight is admissible
        //    if it lands at or before the chain's first touch of its
        //    register (`u64::MAX` if it never touches it) — the interlock
        //    would not have stalled, so the replay holds (the value is
        //    already in the register file). Admitted writes stay armed: a
        //    side exit before the touch point must leave their ready
        //    times observable.
        self.inflight.iter().all(|&r| {
            self.ready[r as usize] <= base.saturating_add(ch.touch[r as usize])
        })
            // 2. Every top-of-pc cycle-limit check must be unreachable.
            && base + ch.last_issue <= max_cycles
            // 3. Every fetch line resident: a read-only probe, so a miss
            //    leaves LRU state untouched for the slow path's replay.
            && self
                .icache
                .as_ref()
                .is_none_or(|ic| ch.probe.iter().all(|&l| ic.probe(l)))
    }

    /// One pc on the exact slow path: fetch through the I-cache, issue
    /// under the model's timing rule, execute posting every result on the
    /// scoreboard, retire.
    #[inline(always)]
    fn slow_step<P: IssueModel<Group = G>>(
        &mut self,
        d: &Decoded,
        pc: u32,
    ) -> Result<Flow, SimError> {
        let meta = &d.pcs[pc as usize];
        let f = meta.fetch;
        if let Some(ic) = self.icache.as_mut() {
            let misses = ic.access_lines(f.first_line, f.last_line);
            if misses > 0 {
                let pen = u64::from(misses) * u64::from(ic.miss_penalty());
                // A miss closes the open issue group, one cycle on.
                self.t.cycle += pen + u64::from(self.t.group != G::default());
                self.t.group = G::default();
                self.out.icache_stalls += pen;
                self.out.icache_misses += u64::from(misses);
            }
        }
        self.out.activity.fetch_bytes += u64::from(f.bytes);
        P::issue(d, &mut self.t, &self.ready, pc);
        self.out.ops_executed += meta.act.ops;
        meta.act.apply(&mut self.out.activity);
        let mut flow = Flow {
            next_pc: pc + 1,
            taken: false,
            halted: false,
        };
        self.exec::<P, true>(d, meta.ops.0, meta.ops.1, &mut flow)?;
        P::issued(d, &mut self.t, pc);
        self.retire::<P>(&flow, d.branch_penalty);
        Ok(flow)
    }

    /// Close out a pc or chain exit that ended in `flow`: a halt or a
    /// taken transfer closes the open issue group, and a taken transfer
    /// pays the branch penalty.
    #[inline(always)]
    fn retire<P: IssueModel<Group = G>>(&mut self, flow: &Flow, penalty: u64) {
        if flow.halted {
            self.t.cycle += P::CLOSE;
        } else if flow.taken {
            self.t.cycle += P::CLOSE + penalty;
            self.t.group = G::default();
            self.out.branch_stalls += penalty;
        }
    }

    /// Execute the decoded ops `lo..hi`, those of consecutive whole pcs:
    /// the one op executor of both issue models and both tiers. Each op
    /// reads the register file, SP and LR directly; its result (or store)
    /// goes straight there too unless the op defers it to the end of its
    /// pc — only a VLIW bundle whose op order could observe it does. With
    /// `TIMED` (the slow path) each register result is also posted on the
    /// scoreboard at the issue cycle plus its latency.
    #[inline(always)]
    fn exec<P: IssueModel, const TIMED: bool>(
        &mut self,
        d: &Decoded,
        lo: u32,
        hi: u32,
        flow: &mut Flow,
    ) -> Result<(), SimError> {
        let (lo, hi) = (lo as usize, hi as usize);
        for (i, op) in (lo..).zip(&d.ops[lo..hi]) {
            let (lat, defer) = (op.lat, P::DEFERS && op.defer);
            let fault = |addr| SimError::MemFault {
                pc: d.pc_of(i),
                addr,
            };
            match &op.kind {
                ExecKind::Ldw { dst, base, off } => {
                    let v = self.memory[self.addr(base, *off).map_err(fault)?];
                    self.put::<TIMED>(*dst, v, lat, defer);
                }
                ExecKind::Stw { val, base, off } => {
                    let (v, a) = (self.rd(val), self.addr(base, *off).map_err(fault)?);
                    if defer {
                        self.stores.push((a, v));
                    } else {
                        self.memory[a] = v;
                    }
                }
                ExecKind::Br { target } => flow.jump(*target),
                ExecKind::BrT { cond, target } => {
                    if self.rd(cond) != 0 {
                        flow.jump(*target);
                    }
                }
                ExecKind::BrF { cond, target } => {
                    if self.rd(cond) == 0 {
                        flow.jump(*target);
                    }
                }
                ExecKind::Call { entry, ret } => {
                    self.put_link(LR, *ret, defer);
                    flow.jump(*entry);
                }
                ExecKind::Ret => {
                    if self.lr == LR_HALT {
                        flow.halted = true;
                    } else if self.lr as usize >= d.pcs.len() {
                        return Err(SimError::WildReturn { pc: d.pc_of(i) });
                    } else {
                        flow.jump(self.lr);
                    }
                }
                ExecKind::Halt => flow.halted = true,
                ExecKind::Emit { src } => {
                    let v = self.rd(src);
                    self.out.output.push(v);
                }
                ExecKind::AddSp { imm } => {
                    self.put_link(SP, (i64::from(self.sp) + imm) as u32, defer);
                }
                ExecKind::MovFromSp { dst } => {
                    self.put::<TIMED>(*dst, self.sp as i32, lat, defer);
                }
                ExecKind::MovFromLr { dst } => {
                    self.put::<TIMED>(*dst, self.lr as i32, lat, defer);
                }
                ExecKind::MovToLr { src } => self.put_link(LR, self.rd(src) as u32, defer),
                ExecKind::Mov { dst, src } => {
                    let v = self.rd(src);
                    self.put::<TIMED>(*dst, v, lat, defer);
                }
                ExecKind::Select { dst, c, a, b } => {
                    let v = if self.rd(c) != 0 {
                        self.rd(a)
                    } else {
                        self.rd(b)
                    };
                    self.put::<TIMED>(*dst, v, lat, defer);
                }
                ExecKind::Custom { id, srcs, dsts } => {
                    self.argv.clear();
                    for s in &d.pools.srcs[srcs.0 as usize..srcs.1 as usize] {
                        let v = self.rd(s);
                        self.argv.push(v);
                    }
                    d.custom_ops[*id as usize]
                        .eval_into(&self.argv, &mut self.cvals, &mut self.couts)
                        .map_err(|e| match e {
                            CustomOpError::Eval(_) => SimError::DivideByZero { pc: d.pc_of(i) },
                            other => SimError::InvalidProgram(other.to_string()),
                        })?;
                    let dsts = &d.pools.dsts[dsts.0 as usize..dsts.1 as usize];
                    for (k, &dst) in dsts.iter().enumerate().take(self.couts.len()) {
                        let v = self.couts[k];
                        self.put::<TIMED>(dst, v, lat, defer);
                    }
                }
                ExecKind::Nop => {}
                ExecKind::Un { op, dst, a } => {
                    let v = op.eval1(self.rd(a)).expect("unary arith");
                    self.put::<TIMED>(*dst, v, lat, defer);
                }
                ExecKind::Bin { op, dst, a, b } => {
                    let v = op.eval2(self.rd(a), self.rd(b)).map_err(|e| match e {
                        EvalError::DivideByZero => SimError::DivideByZero { pc: d.pc_of(i) },
                        EvalError::NotArithmetic => {
                            SimError::InvalidProgram(format!("opcode {op} is not executable"))
                        }
                    })?;
                    self.put::<TIMED>(*dst, v, lat, defer);
                }
            }
            if P::DEFERS && op.flush {
                self.flush();
            }
        }
        Ok(())
    }

    /// Apply a pc's deferred results and stores at its end.
    fn flush(&mut self) {
        for &(r, v) in &self.wbuf {
            match r {
                SP => self.sp = v as u32,
                LR => self.lr = v as u32,
                r => self.regs[r as usize] = v,
            }
        }
        for &(a, v) in &self.stores {
            self.memory[a] = v;
        }
        self.wbuf.clear();
        self.stores.clear();
    }

    /// The value of a source operand.
    #[inline(always)]
    fn rd(&self, s: &Src) -> i32 {
        match *s {
            Src::Imm(v) => v,
            Src::Reg(r) => self.regs[r as usize],
        }
    }

    /// The in-bounds word address `base + off`, or the faulting address.
    #[inline(always)]
    fn addr(&self, base: &Src, off: i64) -> Result<usize, i64> {
        let addr = i64::from(self.rd(base)) + off;
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(addr);
        }
        Ok(addr as usize)
    }

    /// Write SP or LR (`which`), deferred like a register result but
    /// never on the scoreboard.
    #[inline(always)]
    fn put_link(&mut self, which: u32, v: u32, defer: bool) {
        if defer {
            self.wbuf.push((which, v as i32));
        } else if which == SP {
            self.sp = v;
        } else {
            self.lr = v;
        }
    }

    /// Write one result: to the deferred-write buffer or the register
    /// file, and with `TIMED` onto the scoreboard at `latency` cycles past
    /// the issue cycle. Writes to the hardwired zero register vanish.
    #[inline(always)]
    fn put<const TIMED: bool>(&mut self, dst: u32, v: i32, latency: u32, defer: bool) {
        if dst == 0 {
            return;
        }
        if defer {
            self.wbuf.push((dst, v));
        } else {
            self.regs[dst as usize] = v;
        }
        if TIMED {
            self.ready[dst as usize] = self.t.cycle + u64::from(latency);
            self.inflight.push(dst);
        }
    }
}

/// Control-flow summary of one pc's decoded ops for block discovery. The
/// first control op found terminates the pc; should a pc ever carry more
/// than one (no validated program does), the extra static targets are
/// appended to `extra_leaders` so the partition still splits at every
/// possible transfer destination.
fn ctrl_of(ops: &[DecodedOp], extra_leaders: &mut Vec<u32>) -> Ctrl {
    let mut ctrl = Ctrl::FallThrough;
    for op in ops {
        let c = match op.kind {
            ExecKind::Br { target } => Ctrl::Jump(target),
            ExecKind::BrT { target, .. } | ExecKind::BrF { target, .. } => Ctrl::CondJump(target),
            ExecKind::Call { entry, .. } => Ctrl::Call(entry),
            ExecKind::Ret => Ctrl::Ret,
            ExecKind::Halt => Ctrl::Halt,
            _ => continue,
        };
        if ctrl == Ctrl::FallThrough {
            ctrl = c;
        } else if let Ctrl::Jump(t) | Ctrl::CondJump(t) | Ctrl::Call(t) = c {
            extra_leaders.push(t);
        }
    }
    ctrl
}
