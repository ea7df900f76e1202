//! Linear-scan register allocation over scheduled code, with
//! spill-and-reschedule iteration.
//!
//! Intervals are computed over bundle positions of the scheduled function
//! (liveness-extended across blocks). On overflow the furthest-ending
//! interval is spilled: the *unscheduled* LIR is rewritten with reload/store
//! ops around every use/def, and the caller reschedules and retries. VLIW
//! read-before-write bundle semantics allow an interval ending in a use at
//! position `p` to share a register with one starting at `p`.

use crate::cluster::Homes;
use crate::lir::{FrameRef, LFunc, LImm, LOp, LVal, RETV};
use crate::sched::{effective_defs, effective_reads, Liveness, ScheduledFunc, EMPTY};
use asip_ir::bitset::for_each_bit;
use asip_ir::inst::VReg;
use asip_isa::{MachineDescription, Opcode, Reg};
use std::fmt;

/// A function's register assignment: the physical register of each
/// virtual one.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Indexed by vreg number; `None` where a number has no interval.
    regs: Vec<Option<Reg>>,
}

impl Assignment {
    /// The physical register holding `v` ([`RETV`] is pinned to
    /// [`Reg::RETVAL`]; a vreg without an interval reads as [`Reg::ZERO`]).
    pub fn reg(&self, v: VReg) -> Reg {
        if v == RETV {
            Reg::RETVAL
        } else {
            self.regs
                .get(v.0 as usize)
                .copied()
                .flatten()
                .unwrap_or(Reg::ZERO)
        }
    }
}

/// Result of one allocation attempt.
#[derive(Debug)]
pub enum AllocOutcome {
    /// Every interval got a register.
    Assigned(Assignment),
    /// These virtual registers (sorted, deduplicated) must be spilled;
    /// rewrite and retry.
    Spill(Vec<VReg>),
}

/// Allocation failure after all retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The register file is too small even after spilling everything
    /// spillable.
    TooFewRegisters {
        /// Cluster that overflowed.
        cluster: u8,
        /// Registers available there.
        available: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::TooFewRegisters { cluster, available } => write!(
                f,
                "register file too small: cluster {cluster} has only {available} allocatable registers"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug, Clone)]
struct Interval {
    vreg: VReg,
    cluster: u8,
    start: u32,
    /// Exclusive end: last-use position, or def position + 1 for dead defs
    /// (so a dead def still blocks the register for its own bundle).
    end: u32,
    spillable: bool,
}

/// Whether `v` is a spill temporary in the vreg-indexed `spill_temps`.
fn is_spill_temp(spill_temps: &[bool], v: VReg) -> bool {
    spill_temps.get(v.0 as usize).copied().unwrap_or(false)
}

/// Build live intervals over bundle positions, sorted by (start, vreg),
/// plus the position of every `Call` bundle.
fn build_intervals(
    s: &ScheduledFunc,
    f: &LFunc,
    homes: &Homes,
    live: &Liveness,
    spill_temps: &[bool],
) -> (Vec<Interval>, Vec<u32>) {
    /// Extent of one vreg's occurrences; `min == u32::MAX` until touched.
    #[derive(Clone)]
    struct Acc {
        min: u32,
        max_use: Option<u32>,
        max_def: Option<u32>,
    }
    let mut acc = vec![
        Acc {
            min: u32::MAX,
            max_use: None,
            max_def: None,
        };
        live.len()
    ];
    let mut live_out = vec![0u64; live.words()];
    let mut calls = Vec::new();

    // Position layout: each block's bundles, then a separator position that
    // keeps blocks disjoint.
    let mut pos = 0u32;
    for (i, block) in f.blocks.iter().enumerate() {
        let bundles = s.bundles(i);
        let bstart = pos;
        let bend = bstart + bundles.len() as u32;
        pos = bend + 1;
        for_each_bit(live.live_in(i), |r| {
            let a = &mut acc[r];
            a.min = a.min.min(bstart);
        });
        // Live-out values extend to the block end.
        live.live_out_into(i, &mut live_out);
        for_each_bit(&live_out, |r| {
            let a = &mut acc[r];
            a.min = a.min.min(bstart);
            a.max_use = Some(a.max_use.map_or(bend, |m| m.max(bend)));
        });
        for (k, bu) in bundles.enumerate() {
            let p = bstart + k as u32;
            let mut has_call = false;
            for op in bu
                .iter()
                .filter(|&&o| o != EMPTY)
                .map(|&o| &block.ops[o as usize])
            {
                has_call |= op.opcode == Opcode::Call;
                for r in effective_reads(op) {
                    let a = &mut acc[live.index(r)];
                    a.min = a.min.min(p);
                    a.max_use = Some(a.max_use.map_or(p, |m| m.max(p)));
                }
                for d in effective_defs(op) {
                    let a = &mut acc[live.index(d)];
                    a.min = a.min.min(p);
                    a.max_def = Some(a.max_def.map_or(p, |m| m.max(p)));
                }
            }
            if has_call {
                calls.push(p);
            }
        }
    }

    // Index `live.index(RETV)`, the last, is the pinned physical register.
    let mut out: Vec<Interval> = acc[..live.len() - 1]
        .iter()
        .enumerate()
        .filter(|(_, a)| a.min != u32::MAX)
        .map(|(v, a)| {
            let vreg = VReg(v as u32);
            let start = a.min;
            let end = match (a.max_use, a.max_def) {
                (Some(u), Some(d)) => u.max(d + 1),
                (Some(u), None) => u,
                (None, Some(d)) => d + 1,
                (None, None) => start + 1,
            };
            Interval {
                vreg,
                cluster: homes.of(vreg),
                start,
                end,
                spillable: vreg != f.vfp && !is_spill_temp(spill_temps, vreg),
            }
        })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.vreg));
    (out, calls)
}

/// One linear-scan pass. `live` is the round's liveness of `f`;
/// `spill_temps` marks, by vreg number, the temporaries [`rewrite_spills`]
/// created.
///
/// # Errors
///
/// [`AllocError::TooFewRegisters`] when an overflow has no spillable victim.
pub(crate) fn try_allocate(
    s: &ScheduledFunc,
    f: &LFunc,
    machine: &MachineDescription,
    homes: &Homes,
    live: &Liveness,
    spill_temps: &[bool],
) -> Result<AllocOutcome, AllocError> {
    let (intervals, calls) = build_intervals(s, f, homes, live, spill_temps);

    // Caller-save discipline: no value may live in a register across a
    // call (the callee owns the whole file). Any interval spanning a call
    // is stack-homed up front. The frame pointer is exempt — it is
    // rematerialized from SP immediately after every call.
    if !calls.is_empty() {
        let mut crossing: Vec<VReg> = intervals
            .iter()
            .filter(|iv| {
                // `calls` is ascending: an interval spans some call iff it
                // spans the first call after its start.
                let c = calls.partition_point(|&c| c <= iv.start);
                iv.vreg != f.vfp && iv.spillable && calls.get(c).is_some_and(|&c| iv.end > c)
            })
            .map(|iv| iv.vreg)
            .collect();
        if !crossing.is_empty() {
            crossing.sort();
            return Ok(AllocOutcome::Spill(crossing));
        }
    }

    // Free registers per cluster; cluster 0 reserves r0 (zero) and r1 (ret).
    let mut free: Vec<Vec<u16>> = (0..machine.clusters)
        .map(|c| {
            let lo = if c == 0 { 2 } else { 0 };
            (lo..machine.regs_per_cluster).rev().collect()
        })
        .collect();
    if free.iter().any(|f| f.is_empty()) {
        return Err(AllocError::TooFewRegisters {
            cluster: 0,
            available: 0,
        });
    }

    let mut active: Vec<(u32, usize)> = Vec::new(); // (end, interval idx)
    let mut assignment: Vec<Option<u16>> = vec![None; intervals.len()];
    let mut spills: Vec<VReg> = Vec::new();

    for idx in 0..intervals.len() {
        let (start, cluster) = (intervals[idx].start, intervals[idx].cluster);
        // Expire, returning registers to the free lists in `active` order.
        active.retain(|&(end, ai)| {
            if end > start {
                return true;
            }
            if let Some(r) = assignment[ai] {
                free[intervals[ai].cluster as usize].push(r);
            }
            false
        });

        if let Some(r) = free[cluster as usize].pop() {
            assignment[idx] = Some(r);
            active.push((intervals[idx].end, idx));
        } else {
            // Spill the furthest-ending spillable interval on this cluster
            // (including, possibly, the current one).
            // Prefer the furthest-ending *long* interval (spilling a 1-2
            // bundle interval cannot relieve pressure).
            let worth = |iv: &Interval| iv.spillable && iv.end - iv.start > 2;
            let mut victim: Option<usize> = if worth(&intervals[idx]) {
                Some(idx)
            } else {
                None
            };
            let mut victim_end = if worth(&intervals[idx]) {
                intervals[idx].end
            } else {
                0
            };
            for &(end, ai) in &active {
                if intervals[ai].cluster == cluster && worth(&intervals[ai]) && end > victim_end {
                    victim = Some(ai);
                    victim_end = end;
                }
            }
            if victim.is_none() {
                // Fall back to any spillable interval at all.
                if intervals[idx].spillable {
                    victim = Some(idx);
                }
                for &(_, ai) in &active {
                    if intervals[ai].cluster == cluster && intervals[ai].spillable {
                        victim = Some(ai);
                        break;
                    }
                }
            }
            let Some(v) = victim else {
                return Err(AllocError::TooFewRegisters {
                    cluster,
                    available: free[cluster as usize].len(),
                });
            };
            spills.push(intervals[v].vreg);
            if v != idx {
                // Steal the victim's register.
                let r = assignment[v]
                    .take()
                    .expect("active interval has a register");
                active.retain(|&(_, ai)| ai != v);
                assignment[idx] = Some(r);
                active.push((intervals[idx].end, idx));
            }
            // If v == idx the current interval is simply not assigned.
        }
    }

    if !spills.is_empty() {
        spills.sort();
        spills.dedup();
        return Ok(AllocOutcome::Spill(spills));
    }
    let mut regs = vec![None; f.num_vregs as usize];
    for (iv, a) in intervals.iter().zip(&assignment) {
        let r = a.expect("no spills means all assigned");
        regs[iv.vreg.0 as usize] = Some(Reg::new(iv.cluster, r));
    }
    Ok(AllocOutcome::Assigned(Assignment { regs }))
}

/// Rewrite the unscheduled LIR, homing `spilled` registers (sorted,
/// deduplicated, as [`AllocOutcome::Spill`] lists them) on the stack.
/// Newly created reload/store temporaries are marked in the vreg-indexed
/// `spill_temps` (they must never themselves be spilled). The caller
/// re-runs cluster assignment and scheduling on the rewritten function.
pub(crate) fn rewrite_spills(f: &mut LFunc, spilled: &[VReg], spill_temps: &mut Vec<bool>) {
    debug_assert!(spilled.windows(2).all(|w| w[0] < w[1]));
    // `spilled[k]` gets slot `first + k`.
    let first = f.spill_slots;
    f.spill_slots += spilled.len() as u32;
    let slot_of = |r: VReg| spilled.binary_search(&r).ok().map(|k| first + k as u32);
    let mut new_temp = |f: &mut LFunc| {
        let t = f.new_vreg();
        spill_temps.resize(f.num_vregs as usize, false);
        spill_temps[t.0 as usize] = true;
        t
    };
    // Per op: (spilled register, its reload temporary), and the stores
    // that follow it.
    let mut reloads: Vec<(VReg, VReg)> = Vec::new();
    let mut stores: Vec<LOp> = Vec::new();
    for bi in 0..f.blocks.len() {
        let ops = std::mem::take(&mut f.blocks[bi].ops);
        let mut out = Vec::with_capacity(ops.len() * 2);
        for mut op in ops {
            // Reloads for spilled sources, one per distinct register.
            reloads.clear();
            for s in op.srcs.iter_mut() {
                let LVal::Reg(r) = *s else { continue };
                let Some(slot) = slot_of(r) else { continue };
                let t = match reloads.iter().find(|&&(v, _)| v == r) {
                    Some(&(_, t)) => t,
                    None => {
                        let t = new_temp(f);
                        let mut ld = LOp::new(Opcode::Ldw, vec![t], vec![LVal::Reg(f.vfp)]);
                        ld.imm = LImm::Frame(FrameRef::Spill(slot));
                        ld.spill = true;
                        out.push(ld);
                        reloads.push((r, t));
                        t
                    }
                };
                *s = LVal::Reg(t);
            }
            // Stores for spilled destinations.
            for d in op.dsts.iter_mut() {
                let Some(slot) = slot_of(*d) else { continue };
                let t = new_temp(f);
                let mut st = LOp::new(Opcode::Stw, vec![], vec![LVal::Reg(t), LVal::Reg(f.vfp)]);
                st.imm = LImm::Frame(FrameRef::Spill(slot));
                st.spill = true;
                stores.push(st);
                *d = t;
            }
            out.push(op);
            out.append(&mut stores);
        }
        f.blocks[bi].ops = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign_clusters;
    use crate::lir::lower_module;
    use crate::sched::{lir_liveness, schedule_function};

    fn pipeline(src: &str, m: &MachineDescription) -> (LFunc, ScheduledFunc, Assignment) {
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        let mut lf = lower_module(&module, m, "main").unwrap().funcs.remove(0);
        let mut spill_temps = Vec::new();
        let mut sequential = false;
        for round in 0..24 {
            let homes = assign_clusters(&mut lf, m);
            let live = lir_liveness(&lf);
            let s = if sequential {
                crate::sched::schedule_function_sequential(&lf, m, &homes).unwrap()
            } else {
                schedule_function(&lf, m, &homes, &live).unwrap()
            };
            match try_allocate(&s, &lf, m, &homes, &live, &spill_temps) {
                Ok(AllocOutcome::Assigned(map)) => return (lf, s, map),
                Ok(AllocOutcome::Spill(vs)) => {
                    assert!(round < 23, "spilling did not converge");
                    rewrite_spills(&mut lf, &vs, &mut spill_temps);
                }
                Err(_) => {
                    assert!(!sequential, "even sequential mode failed");
                    sequential = true;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn simple_function_allocates_without_spills() {
        let m = MachineDescription::ember4();
        let (lf, _s, map) = pipeline("void main(int a, int b) { emit(a + b); }", &m);
        assert!(lf.spill_slots == 0);
        for r in map.regs.iter().flatten() {
            assert!(r.cluster < m.clusters);
            assert!(r.index < m.regs_per_cluster);
            assert!(
                !(r.cluster == 0 && r.index < 2),
                "reserved register allocated: {r}"
            );
        }
    }

    #[test]
    fn no_two_live_vregs_share_a_register() {
        let m = MachineDescription::ember4();
        let src = r#"
            void main(int a, int b, int c, int d) {
                int e = a + b;
                int f = c + d;
                int g = a * c;
                int h = b * d;
                emit(e + f + g + h);
                emit(e - f);
                emit(g - h);
            }
        "#;
        let (lf, s, map) = pipeline(src, &m);
        // Re-derive intervals and check assigned registers don't collide.
        // (ember4 has a single cluster, so re-running cluster assignment on a
        // clone is a no-op and homes are all zero.)
        let (ivs, _) = build_intervals(
            &s,
            &lf,
            &assign_clusters(&mut lf.clone(), &m),
            &lir_liveness(&lf),
            &[],
        );
        for i in 0..ivs.len() {
            for j in (i + 1)..ivs.len() {
                let (a, b) = (&ivs[i], &ivs[j]);
                let (ra, rb) = (map.reg(a.vreg), map.reg(b.vreg));
                if ra == rb {
                    let disjoint = a.end <= b.start || b.end <= a.start;
                    assert!(
                        disjoint,
                        "{} and {} share {} with overlapping intervals [{},{}) [{},{})",
                        a.vreg, b.vreg, ra, a.start, a.end, b.start, b.end
                    );
                }
            }
        }
    }

    #[test]
    fn small_regfile_forces_spills_and_converges() {
        let mut b = MachineDescription::builder("tiny");
        b.registers(8)
            .slot(&[
                asip_isa::FuKind::Alu,
                asip_isa::FuKind::Mem,
                asip_isa::FuKind::Branch,
            ])
            .slot(&[asip_isa::FuKind::Alu, asip_isa::FuKind::Mul]);
        let m = b.build().unwrap();
        // Lots of simultaneously-live values.
        let src = r#"
            void main(int a, int b) {
                int v0 = a + 1; int v1 = b + 2; int v2 = a * 3; int v3 = b * 4;
                int v4 = a - 5; int v5 = b - 6; int v6 = a * 7; int v7 = b * 8;
                int v8 = a + 9; int v9 = b + 10;
                emit(v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9);
                emit(v0 * v9); emit(v1 * v8); emit(v2 * v7);
            }
        "#;
        let (lf, _s, _map) = pipeline(src, &m);
        assert!(lf.spill_slots > 0, "expected spills on an 8-register file");
    }

    #[test]
    fn too_small_regfile_reports_error() {
        let mut b = MachineDescription::builder("minuscule");
        b.registers(6).slot(&[
            asip_isa::FuKind::Alu,
            asip_isa::FuKind::Mem,
            asip_isa::FuKind::Branch,
            asip_isa::FuKind::Mul,
        ]);
        let m = b.build().unwrap();
        // vfp + several spill temps still fit in 4 allocatable registers;
        // allocation should succeed eventually or error out cleanly — either
        // way, it must not loop forever.
        let mut module = asip_tinyc::compile(
            "void main(int a, int b) { emit(a * 31 + b * 17 + (a - b) * (a + b)); }",
        )
        .unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        let mut lf = lower_module(&module, &m, "main").unwrap().funcs.remove(0);
        let mut spill_temps = Vec::new();
        let mut done = false;
        for _ in 0..12 {
            let homes = assign_clusters(&mut lf, &m);
            let live = lir_liveness(&lf);
            let s = schedule_function(&lf, &m, &homes, &live).unwrap();
            match try_allocate(&s, &lf, &m, &homes, &live, &spill_temps) {
                Ok(AllocOutcome::Assigned(_)) => {
                    done = true;
                    break;
                }
                Ok(AllocOutcome::Spill(vs)) => {
                    rewrite_spills(&mut lf, &vs, &mut spill_temps);
                }
                Err(AllocError::TooFewRegisters { .. }) => {
                    done = true;
                    break;
                }
            }
        }
        assert!(done, "allocation loop did not terminate");
    }
}
