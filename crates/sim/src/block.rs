//! The block-compiled execution engines: decode the program **once** into
//! flat tables, translate basic blocks into precomputed superops, then
//! execute a threaded-code dispatch loop over them, with hot loops chained
//! into superblock traces.
//!
//! Decoding hoists per-op table lookups out of the loop, but a per-pc
//! interpreter still pays per-cycle dispatch, scoreboard probes and
//! I-cache bookkeeping on every op of every iteration. Hot kernels spend
//! nearly all cycles in a handful of basic blocks whose *timing* is
//! input-independent: within a straight-line block the schedule fixes
//! every interlock stall, every fetch line and every issue-group boundary.
//! So each block is translated on first visit (keyed by its entry pc) into
//! a **superop**:
//!
//! * block-level precomputed costs — total cycles, folded interlock
//!   stalls, aggregated activity/fetch/idle statistics — applied in O(1)
//!   at block exit instead of per bundle;
//! * the deduplicated I-cache **line set** the block fetches, probed
//!   read-only at entry ([`crate::ICache::probe`]);
//! * the **live-out** write set: registers whose results are still in
//!   flight when the block exits, re-armed on the scoreboard so timing
//!   composes exactly across blocks;
//! * residual per-bundle flags for the few shapes where same-pc ordering
//!   is observable (a bundle that reads a register it also writes, or
//!   mixes loads and stores) — those keep the engine's deferred-write
//!   semantics instead of the fast direct writes.
//!
//! A superop's static trace is valid only under its **entry assumptions**:
//! every write still in flight at block entry lands at or before the
//! block's first touch of its register (so no interlock the trace didn't
//! already fold in can fire), every fetch line resident, and the cycle
//! limit out of reach. Each assumption is checked by a cheap guard
//! at block entry; any failure — and any block the translator refuses
//! (pathological multi-line I-cache straddles) — falls back to an exact
//! per-pc cycle loop over the decoded tables for **one pc at a time**,
//! re-attempting fast dispatch at the next block boundary. Correctness
//! therefore never depends on the fast path covering everything, and the
//! differential suites pin this engine to the interpretive oracle
//! ([`crate::reference`]) with bit-identical
//! [`SimResult`](crate::SimResult)s, with the trace tier forming traces
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
//! ([`asip_dbt::blocks::grow_trace`]) into a **superblock**: one superop
//! covering the whole path, with the scoreboard arithmetic re-replayed
//! *chain-globally* (per-block stall totals don't compose — stalls depend
//! on scoreboard state carried across segments), block aggregates
//! pre-summed cumulatively per segment, and the I-cache line sets unioned
//! into one read-only entry probe. Entry admission reuses the block
//! tier's first-touch rule over the whole chain. Each internal control
//! transfer is guarded against the profiled expectation: a mismatch is a
//! **side exit** — the cumulative per-segment state makes any exit O(1) —
//! and any entry-guard failure falls back to plain block dispatch, so
//! correctness again never depends on the tier firing.

pub mod scalar;
pub mod vliw;

pub use scalar::BlockScalar;
pub use vliw::BlockVliw;

use crate::exec::{CustomPools, DecodedOp, ExecKind, Src};
use asip_dbt::blocks::Ctrl;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

static TRACE_FORMED: asip_obs::Counter = asip_obs::Counter::new("sim.trace.formed");
static TRACE_ENTRIES: asip_obs::Counter = asip_obs::Counter::new("sim.trace.entries");
static TRACE_SIDE_EXITS: asip_obs::Counter = asip_obs::Counter::new("sim.trace.side_exits");
static TRACE_FALLBACKS: asip_obs::Counter = asip_obs::Counter::new("sim.trace.fallbacks");

/// Longest block chain a superblock trace may cover. Chains may unroll
/// a loop through its own head: every revisit folded into the trace is
/// a dispatch round saved.
pub(crate) const MAX_TRACE_BLOCKS: usize = 16;
/// Largest pc footprint (bundle/instruction count) a trace may cover.
pub(crate) const MAX_TRACE_PCS: u32 = 64;

/// Runtime profile and promotion state for the superblock tier, shared
/// by both engines and generic over their trace representation. All state
/// is atomic or [`OnceLock`]-guarded because runs take `&self`: one engine
/// may serve runs on several threads at once.
#[derive(Debug)]
pub(crate) struct TraceState<T> {
    /// Per-block dispatch counter, bumped at hot-loop-head entries until
    /// the block's trace slot is decided.
    pub heat: Vec<AtomicU32>,
    /// Per-block packed Boyer–Moore majority sketch of the dominant
    /// successor edge: high 32 bits hold `(next_pc << 1) | taken`, low
    /// 32 bits a confidence count. Relaxed read-modify-write without
    /// compare-and-swap — a lost update under contention only delays
    /// confidence, never corrupts the majority invariant we rely on
    /// (the sketch is advisory; mispredictions side-exit).
    pub succ: Vec<AtomicU64>,
    /// Formed traces, one slot per head block; `None` = the head was
    /// judged unchainable (too short, unconfident successors) — don't
    /// retry.
    pub tx: Vec<OnceLock<Option<T>>>,
    pub formed: AtomicU64,
    pub entries: AtomicU64,
    pub side_exits: AtomicU64,
    pub fallbacks: AtomicU64,
}

impl<T> TraceState<T> {
    pub fn new(nblocks: usize) -> TraceState<T> {
        TraceState {
            heat: (0..nblocks).map(|_| AtomicU32::new(0)).collect(),
            succ: (0..nblocks).map(|_| AtomicU64::new(0)).collect(),
            tx: (0..nblocks).map(|_| OnceLock::new()).collect(),
            formed: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            side_exits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Fold one observed exit edge of loop block `bi` into its sketch.
    #[inline]
    pub fn record_succ(&self, bi: usize, next_pc: u32, taken: bool) {
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
    pub fn dominant(&self, bi: usize, conf: u64) -> Option<(u32, bool)> {
        let cur = self.succ[bi].load(Ordering::Relaxed);
        if cur & 0xffff_ffff < conf {
            return None;
        }
        let key = cur >> 32;
        Some(((key >> 1) as u32, key & 1 == 1))
    }

    /// Note one formed trace (per-engine and process-global counters).
    pub fn count_formed(&self) {
        self.formed.fetch_add(1, Ordering::Relaxed);
        TRACE_FORMED.add(1);
    }

    /// Fold one run's trace-tier tallies into the per-engine and
    /// process-global counters.
    pub fn count_run(&self, entries: u64, side_exits: u64, fallbacks: u64) {
        if entries != 0 {
            self.entries.fetch_add(entries, Ordering::Relaxed);
            TRACE_ENTRIES.add(entries);
        }
        if side_exits != 0 {
            self.side_exits.fetch_add(side_exits, Ordering::Relaxed);
            TRACE_SIDE_EXITS.add(side_exits);
        }
        if fallbacks != 0 {
            self.fallbacks.fetch_add(fallbacks, Ordering::Relaxed);
            TRACE_FALLBACKS.add(fallbacks);
        }
    }
}

/// Visit one decoded op's register *reads* (flat indices), including the
/// shared custom-op source pool.
pub(crate) fn for_each_read(op: &DecodedOp, pools: &CustomPools, f: &mut impl FnMut(u32)) {
    let mut src = |s: &Src| {
        if let Src::Reg(r) = *s {
            f(r);
        }
    };
    match &op.kind {
        ExecKind::Bin { a, b, .. } => {
            src(a);
            src(b);
        }
        ExecKind::Un { a, .. } => src(a),
        ExecKind::Ldw { base, .. } => src(base),
        ExecKind::Stw { val, base, .. } => {
            src(val);
            src(base);
        }
        ExecKind::BrT { cond, .. } | ExecKind::BrF { cond, .. } => src(cond),
        ExecKind::Emit { src: s } | ExecKind::MovToLr { src: s } | ExecKind::Mov { src: s, .. } => {
            src(s);
        }
        ExecKind::Select { c, a, b, .. } => {
            src(c);
            src(a);
            src(b);
        }
        ExecKind::Custom { srcs, .. } => {
            for s in &pools.srcs[srcs.0 as usize..srcs.1 as usize] {
                src(s);
            }
        }
        ExecKind::Br { .. }
        | ExecKind::Call { .. }
        | ExecKind::Ret
        | ExecKind::Halt
        | ExecKind::AddSp { .. }
        | ExecKind::MovFromSp { .. }
        | ExecKind::MovFromLr { .. }
        | ExecKind::Nop => {}
    }
}

/// Visit one decoded op's register *writes* (flat indices, the hardwired
/// zero register included — callers filter), including the shared
/// custom-op destination pool.
pub(crate) fn for_each_write(op: &DecodedOp, pools: &CustomPools, f: &mut impl FnMut(u32)) {
    match &op.kind {
        ExecKind::Bin { dst, .. }
        | ExecKind::Un { dst, .. }
        | ExecKind::Ldw { dst, .. }
        | ExecKind::MovFromSp { dst }
        | ExecKind::MovFromLr { dst }
        | ExecKind::Mov { dst, .. }
        | ExecKind::Select { dst, .. } => f(*dst),
        ExecKind::Custom { dsts, .. } => {
            for &d in &pools.dsts[dsts.0 as usize..dsts.1 as usize] {
                f(d);
            }
        }
        ExecKind::Stw { .. }
        | ExecKind::Br { .. }
        | ExecKind::BrT { .. }
        | ExecKind::BrF { .. }
        | ExecKind::Call { .. }
        | ExecKind::Ret
        | ExecKind::Halt
        | ExecKind::Emit { .. }
        | ExecKind::AddSp { .. }
        | ExecKind::MovToLr { .. }
        | ExecKind::Nop => {}
    }
}

/// Control-flow summary of one pc's decoded ops for block discovery. The
/// first control op found terminates the pc; should a pc ever carry more
/// than one (no validated program does), the extra static targets are
/// appended to `extra_leaders` so the partition still splits at every
/// possible transfer destination.
pub(crate) fn ctrl_of(ops: &[DecodedOp], extra_leaders: &mut Vec<u32>) -> Ctrl {
    let mut ctrl = Ctrl::FallThrough;
    for op in ops {
        let c = match op.kind {
            ExecKind::Br { target } => Ctrl::Jump(target),
            ExecKind::BrT { target, .. } | ExecKind::BrF { target, .. } => Ctrl::CondJump(target),
            ExecKind::Call { entry } => Ctrl::Call(entry),
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
