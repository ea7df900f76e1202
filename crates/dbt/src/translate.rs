//! Binary translation between members of a customized-VLIW family.
//!
//! This is the machinery behind the paper's §2.1–2.2 claim that run-time
//! techniques make "ISA drift" acceptable: a binary scheduled for family
//! member A is *rebundled* for member B — different issue width, slot
//! layout, latencies or encoding — without recompilation. Correctness comes
//! from preserving A's intra-bundle read-before-write semantics:
//!
//! * ops from one A bundle are topologically ordered so every reader of a
//!   register precedes its writer (they all read pre-bundle values);
//! * B bundles never mix ops from different A bundles, so cross-bundle
//!   dependences stay sequential;
//! * branch targets are remapped through the bundle correspondence table.
//!
//! The translator reads the source program's bundles directly, remaps its
//! function entries, and copies its data and custom-op directories.

use asip_isa::{Bundle, MachineDescription, MachineOp, Opcode, VliwProgram};
use std::collections::HashMap;
use std::fmt;

/// Translation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Operations in the source binary.
    pub ops_in: usize,
    /// Operations emitted (identical repertoire, so equal unless NOPs).
    pub ops_out: usize,
    /// Source bundles.
    pub bundles_in: usize,
    /// Emitted bundles.
    pub bundles_out: usize,
    /// Intra-bundle read/write pairs that constrained op order.
    pub hazards_ordered: usize,
}

/// Translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbtError {
    /// Register files differ; rebundling cannot remap registers.
    IncompatibleRegisters {
        /// Source machine.
        from: String,
        /// Target machine.
        to: String,
    },
    /// An operation's unit kind has no slot on the target.
    UnplaceableOp {
        /// The op's mnemonic.
        opcode: String,
    },
    /// A parallel register swap (A↔B in one bundle) cannot be sequenced
    /// without a scratch register.
    SwapHazard {
        /// Bundle index in the source binary.
        bundle: usize,
    },
}

impl fmt::Display for DbtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbtError::IncompatibleRegisters { from, to } => {
                write!(f, "cannot translate {from} -> {to}: register files differ")
            }
            DbtError::UnplaceableOp { opcode } => {
                write!(f, "target machine has no slot for {opcode}")
            }
            DbtError::SwapHazard { bundle } => {
                write!(
                    f,
                    "bundle {bundle}: parallel register swap needs a scratch register"
                )
            }
        }
    }
}

impl std::error::Error for DbtError {}

/// Order one source bundle's ops so that every reader of a register
/// precedes (or co-issues with) the op that writes it, preserving
/// read-before-write parallel semantics under serialized re-issue.
///
/// Returns the placement groups in topological order plus the hazard edge
/// count. Singleton groups may be packed greedily across target bundles;
/// multi-op groups are strongly connected components of the
/// read-before-write graph (parallel swaps/rotations) whose members must
/// co-issue in one target bundle. Ops merely *behind* a cycle stay
/// singletons ordered after it — only the cycle itself needs atomicity.
fn order_bundle_ops(ops: &[&MachineOp]) -> (Vec<Vec<usize>>, usize) {
    let n = ops.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n]; // x -> y : x before y
    let mut hazards = 0usize;
    for (y, wop) in ops.iter().enumerate() {
        for &w in &wop.dsts {
            if w.is_zero() {
                continue;
            }
            for (x, rop) in ops.iter().enumerate() {
                if x == y {
                    continue;
                }
                if rop.reads().any(|r| r == w) {
                    edges[x].push(y);
                    hazards += 1;
                }
            }
        }
    }

    // Iterative Tarjan SCC. Components come out in reverse topological
    // order of the condensation, so the result is reversed before return.
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new(); // (node, next edge position)

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push((root, 0));
        while let Some(&(v, ei)) = call.last() {
            if ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(ei) {
                call.last_mut().expect("frame exists").1 += 1;
                if index[w] == UNVISITED {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs.reverse();
    (sccs, hazards)
}

/// Rebundle a program's bundles for the target machine. Returns the new
/// bundles and a map `source bundle -> first target bundle`.
fn rebundle(
    bundles: &[Bundle],
    to: &MachineDescription,
    stats: &mut TranslationStats,
) -> Result<(Vec<Bundle>, Vec<u32>), DbtError> {
    let spc = to.slots_per_cluster();
    let width = to.issue_width();
    let mut out: Vec<Bundle> = Vec::with_capacity(bundles.len());
    let mut start_of = Vec::with_capacity(bundles.len());

    for (bi, b) in bundles.iter().enumerate() {
        start_of.push(out.len() as u32);
        let ops: Vec<&MachineOp> = b.ops().map(|(_, op)| op).collect();
        if ops.is_empty() {
            out.push(Bundle::empty(width));
            continue;
        }
        stats.ops_in += ops.len();
        let (groups, hazards) = order_bundle_ops(&ops);
        stats.hazards_ordered += hazards;

        // The op must land on a slot of its registers' cluster: the
        // translated program keeps every register on its original cluster.
        let cluster_of = |op: &MachineOp| -> usize {
            let c = op
                .dsts
                .first()
                .map(|d| d.cluster)
                .or_else(|| op.reads().next().map(|r| r.cluster))
                .unwrap_or(0) as usize;
            c.min(to.clusters as usize - 1)
        };
        // Try to add one op to a bundle; true on success.
        let try_place = |bundle: &mut Bundle, control_used: &mut bool, op: &MachineOp| -> bool {
            let is_control = op.opcode.is_control();
            if is_control && *control_used {
                return false;
            }
            let kind = op.opcode.fu_kind();
            let base = cluster_of(op) * spc;
            for s in 0..spc {
                if bundle.slots[base + s].is_none() && to.slots[s].hosts(kind) {
                    bundle.slots[base + s] = Some(op.clone());
                    *control_used |= is_control;
                    return true;
                }
            }
            false
        };

        // Greedy packing group by group, in topological order; never mix
        // source bundles. Singletons may split across target bundles;
        // multi-op groups are parallel swaps/rotations and must co-issue
        // in ONE bundle so every member still reads pre-bundle values.
        let mut current = Bundle::empty(width);
        let mut control_used = false;
        for group in &groups {
            let mut attempt = current.clone();
            let mut attempt_control = control_used;
            let fits = group
                .iter()
                .all(|&oi| try_place(&mut attempt, &mut attempt_control, ops[oi]));
            if fits {
                current = attempt;
                control_used = attempt_control;
            } else {
                // Close the bundle and retry the whole group in a fresh one.
                if current.occupancy() > 0 {
                    out.push(std::mem::replace(&mut current, Bundle::empty(width)));
                    control_used = false;
                }
                let fresh_fits = group
                    .iter()
                    .all(|&oi| try_place(&mut current, &mut control_used, ops[oi]));
                if !fresh_fits {
                    return Err(if group.len() > 1 {
                        // The swap group does not fit the narrower member.
                        DbtError::SwapHazard { bundle: bi }
                    } else {
                        DbtError::UnplaceableOp {
                            opcode: ops[group[0]].opcode.to_string(),
                        }
                    });
                }
            }
            stats.ops_out += group.len();
        }
        if current.occupancy() > 0 {
            out.push(current);
        }
    }
    Ok((out, start_of))
}

/// Translate a program binary from machine `from` to machine `to`.
///
/// The machines must share register-file geometry (clusters ×
/// registers-per-cluster); width, slot mix, latencies, branch penalty,
/// encoding and caches may all differ — those are exactly the §1.2 axes a
/// drifting family varies.
///
/// # Errors
///
/// [`DbtError`] as described on each variant.
pub fn translate_program(
    prog: &VliwProgram,
    from: &MachineDescription,
    to: &MachineDescription,
) -> Result<(VliwProgram, TranslationStats), DbtError> {
    if from.clusters != to.clusters || from.regs_per_cluster != to.regs_per_cluster {
        return Err(DbtError::IncompatibleRegisters {
            from: from.name.clone(),
            to: to.name.clone(),
        });
    }
    let mut stats = TranslationStats {
        bundles_in: prog.bundles.len(),
        ..Default::default()
    };
    let (mut new_bundles, start_of) = rebundle(&prog.bundles, to, &mut stats)?;

    // Remap branch targets (calls carry function ids — untouched; function
    // entries are remapped below).
    for b in &mut new_bundles {
        for slot in b.slots.iter_mut().flatten() {
            match slot.opcode {
                Opcode::Br | Opcode::BrT | Opcode::BrF => {
                    slot.target = start_of[slot.target as usize];
                }
                _ => {}
            }
        }
    }
    let functions = prog
        .functions
        .iter()
        .map(|f| asip_isa::FuncSym {
            entry: start_of[f.entry as usize],
            ..f.clone()
        })
        .collect();

    stats.bundles_out = new_bundles.len();
    let out = VliwProgram {
        machine: to.name.clone(),
        bundles: new_bundles,
        functions,
        globals: prog.globals.clone(),
        custom_ops: prog.custom_ops.clone(),
        entry_func: prog.entry_func,
        data_words: prog.data_words,
    };
    Ok((out, stats))
}

/// A translation cache: one translated image per (source-program, target)
/// pair, with hit/miss accounting — the "code caching" of §2.2.
#[derive(Debug, Default)]
pub struct CodeCache {
    entries: HashMap<(String, String), (VliwProgram, TranslationStats)>,
    hits: u64,
    misses: u64,
}

/// Cost model: translator cycles charged per translated operation (a
/// lightweight rebundler, two decades simpler than a JIT).
pub const TRANSLATION_CYCLES_PER_OP: u64 = 40;

impl CodeCache {
    /// New, empty cache.
    pub fn new() -> CodeCache {
        CodeCache::default()
    }

    /// Get or translate. The key is (program identity, target machine).
    ///
    /// # Errors
    ///
    /// [`DbtError`] from the underlying translation on a miss.
    pub fn get_or_translate(
        &mut self,
        key: &str,
        prog: &VliwProgram,
        from: &MachineDescription,
        to: &MachineDescription,
    ) -> Result<&(VliwProgram, TranslationStats), DbtError> {
        let k = (key.to_string(), to.name.clone());
        if !self.entries.contains_key(&k) {
            self.misses += 1;
            let t = translate_program(prog, from, to)?;
            self.entries.insert(k.clone(), t);
        } else {
            self.hits += 1;
        }
        Ok(self.entries.get(&k).expect("just inserted"))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Translation cycles charged for a given stats record.
    pub fn translation_cost_cycles(stats: &TranslationStats) -> u64 {
        stats.ops_in as u64 * TRANSLATION_CYCLES_PER_OP
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_backend::{compile_module, BackendOptions};
    use asip_isa::Reg;
    use asip_sim::run_program;

    fn compiled_for(src: &str, m: &MachineDescription) -> VliwProgram {
        let mut module = asip_tinyc::compile(src).unwrap();
        asip_ir::passes::optimize(&mut module, &asip_ir::passes::OptConfig::default());
        compile_module(&module, m, None, &BackendOptions::default())
            .unwrap()
            .program
    }

    const SRC: &str = r#"
        int tab[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
        void main(int n) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) s += tab[i % 16] * (i + 1);
            emit(s);
            emit(s % 97);
        }
    "#;

    #[test]
    fn wide_to_narrow_translation_is_correct() {
        let a = MachineDescription::ember4();
        let b = a.derive("ember-narrow", |m| {
            m.slots.truncate(2); // halve the issue width
        });
        let prog = compiled_for(SRC, &a);
        let native_a = run_program(&a, &prog, &[25]).unwrap();
        let (tprog, stats) = translate_program(&prog, &a, &b).unwrap();
        tprog
            .validate(&b)
            .expect("translated program validates on B");
        let on_b = run_program(&b, &tprog, &[25]).unwrap();
        assert_eq!(on_b.output, native_a.output);
        assert!(
            stats.bundles_out >= stats.bundles_in,
            "narrowing splits bundles"
        );
    }

    #[test]
    fn latency_drift_translation_is_correct() {
        let a = MachineDescription::ember4();
        let b = a.derive("ember-slowmul", |m| {
            m.lat_mul = 5;
            m.lat_mem = 4;
        });
        let prog = compiled_for(SRC, &a);
        let (tprog, _) = translate_program(&prog, &a, &b).unwrap();
        let on_b = run_program(&b, &tprog, &[25]).unwrap();
        let native = run_program(&a, &prog, &[25]).unwrap();
        assert_eq!(on_b.output, native.output);
    }

    #[test]
    fn identity_translation_preserves_everything() {
        let a = MachineDescription::ember2();
        let prog = compiled_for(SRC, &a);
        let (tprog, stats) = translate_program(&prog, &a, &a).unwrap();
        assert_eq!(stats.ops_in, stats.ops_out);
        let r1 = run_program(&a, &prog, &[10]).unwrap();
        let r2 = run_program(&a, &tprog, &[10]).unwrap();
        assert_eq!(r1.output, r2.output);
    }

    #[test]
    fn register_geometry_mismatch_rejected() {
        let a = MachineDescription::ember4();
        let b = a.derive("fewer-regs", |m| m.regs_per_cluster = 16);
        let prog = compiled_for(SRC, &a);
        assert!(matches!(
            translate_program(&prog, &a, &b),
            Err(DbtError::IncompatibleRegisters { .. })
        ));
    }

    #[test]
    fn parallel_swap_kept_atomic() {
        // Hand-craft a bundle with an r2 <-> r3 swap (both movs in
        // parallel). The translator must keep the pair in ONE bundle so
        // both still read pre-bundle values.
        let a = MachineDescription::ember4();
        let mut prog = compiled_for("void main() { emit(1); }", &a);
        use asip_isa::{MachineOp, Operand};
        let mut b = Bundle::empty(4);
        b.slots[0] = Some(MachineOp::new(
            Opcode::Mov,
            vec![Reg::new(0, 2)],
            vec![Operand::Reg(Reg::new(0, 3))],
        ));
        b.slots[1] = Some(MachineOp::new(
            Opcode::Mov,
            vec![Reg::new(0, 3)],
            vec![Operand::Reg(Reg::new(0, 2))],
        ));
        prog.bundles.insert(0, b);
        // Entries shift by one.
        for f in &mut prog.functions {
            f.entry += 1;
        }
        let narrow = a.derive("n2", |m| {
            m.slots.truncate(2);
        });
        let (tprog, _) = translate_program(&prog, &a, &narrow).expect("swap fits 2 slots");
        // Find the bundle holding the swap: both movs must be together.
        let swap_bundles: Vec<&Bundle> = tprog
            .bundles
            .iter()
            .filter(|b| {
                b.ops()
                    .any(|(_, op)| op.opcode == Opcode::Mov && op.dsts == vec![Reg::new(0, 2)])
            })
            .collect();
        assert!(!swap_bundles.is_empty());
        assert!(
            swap_bundles.iter().any(|b| b.occupancy() == 2),
            "swap movs must share a bundle"
        );
    }

    #[test]
    fn three_way_rotation_too_wide_for_target_rejected() {
        // A 3-op parallel rotation cannot fit a 2-slot member atomically.
        let a = MachineDescription::ember4();
        let mut prog = compiled_for("void main() { emit(1); }", &a);
        use asip_isa::{MachineOp, Operand};
        let mut b = Bundle::empty(4);
        for (i, (d, s)) in [(2u16, 3u16), (3, 4), (4, 2)].iter().enumerate() {
            b.slots[i] = Some(MachineOp::new(
                Opcode::Mov,
                vec![Reg::new(0, *d)],
                vec![Operand::Reg(Reg::new(0, *s))],
            ));
        }
        prog.bundles.insert(0, b);
        for f in &mut prog.functions {
            f.entry += 1;
        }
        let narrow = a.derive("n2", |m| {
            m.slots.truncate(2);
        });
        let r = translate_program(&prog, &a, &narrow);
        assert!(matches!(r, Err(DbtError::SwapHazard { bundle: 0 })));
    }

    #[test]
    fn op_behind_swap_cycle_stays_out_of_the_atomic_group() {
        // op0: add r2 = r3 + r5   — cycle with op1 via r2/r3
        // op1: mov r3 <- r2
        // op2: mov r5 <- r6       — reads nothing of the cycle, but op0
        //                           reads r5, so op2 must issue after (or
        //                           with) the cycle. Only {op0, op1} needs
        //                           atomicity; op2 can spill to the next
        //                           bundle, so a 2-wide member suffices.
        let a = MachineDescription::ember4();
        let mut prog = compiled_for("void main() { emit(1); }", &a);
        use asip_isa::{MachineOp, Operand};
        let mut b = Bundle::empty(4);
        b.slots[0] = Some(MachineOp::new(
            Opcode::Add,
            vec![Reg::new(0, 2)],
            vec![Operand::Reg(Reg::new(0, 3)), Operand::Reg(Reg::new(0, 5))],
        ));
        b.slots[1] = Some(MachineOp::new(
            Opcode::Mov,
            vec![Reg::new(0, 3)],
            vec![Operand::Reg(Reg::new(0, 2))],
        ));
        b.slots[2] = Some(MachineOp::new(
            Opcode::Mov,
            vec![Reg::new(0, 5)],
            vec![Operand::Reg(Reg::new(0, 6))],
        ));
        prog.bundles.insert(0, b);
        for f in &mut prog.functions {
            f.entry += 1;
        }
        let narrow = a.derive("n2", |m| {
            m.slots.truncate(2);
        });
        let (tprog, _) = translate_program(&prog, &a, &narrow)
            .expect("only the 2-op cycle needs co-issue; 2 slots suffice");
        // The cycle pair shares one bundle; the r5 writer comes later.
        let cycle_bundle = tprog
            .bundles
            .iter()
            .position(|b| {
                b.ops()
                    .any(|(_, op)| op.opcode == Opcode::Add && op.dsts == vec![Reg::new(0, 2)])
            })
            .expect("add placed");
        assert_eq!(tprog.bundles[cycle_bundle].occupancy(), 2);
        let writer_bundle = tprog
            .bundles
            .iter()
            .position(|b| b.ops().any(|(_, op)| op.dsts == vec![Reg::new(0, 5)]))
            .expect("r5 writer placed");
        assert!(
            writer_bundle > cycle_bundle,
            "r5 writer must issue after the cycle that reads pre-bundle r5"
        );
    }

    #[test]
    fn code_cache_amortizes() {
        let a = MachineDescription::ember4();
        let b = a.derive("drifted", |m| m.slots.truncate(3));
        let prog = compiled_for(SRC, &a);
        let mut cache = CodeCache::new();
        for _ in 0..5 {
            cache.get_or_translate("app", &prog, &a, &b).unwrap();
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
    }
}
