//! Instruction-set extension (ISE): automatic identification and selection
//! of application-specific custom operations.
//!
//! This automates §1.2's "specialized ALUs … special ops": dataflow
//! subgraphs of pure arithmetic are enumerated inside basic blocks under
//! register-port constraints (≤4 inputs, ≤2 outputs, convex), scored by
//! `executions × (software critical path − hardware latency)`, grouped by
//! structural signature, greedily selected under a silicon-area budget, and
//! finally **rewritten** into the IR as [`asip_isa::Opcode::Custom`]
//! operations. The machine description is extended with the same definitions
//! so compiler, simulator and hardware models stay consistent.
//!
//! The enumeration reads dense tables built once per block (operands,
//! reaching definitions, consumers, ancestor bitsets), so visiting a node
//! set costs the same whatever the block's length, and each distinct
//! datapath shape is turned into a definition once, however many instances
//! it has.

use asip_ir::bitset::{self, has_bit, set_bit, union_into};
use asip_ir::inst::{BlockId, FuncId, Inst, VReg, Val};
use asip_ir::interp::Profile;
use asip_ir::{Block, Module};
use asip_isa::custom::{CustomOpDef, PatNode, PatRef, MAX_CUSTOM_INPUTS, MAX_CUSTOM_OUTPUTS};
use asip_isa::{MachineDescription, Opcode};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Maximum nodes per candidate subgraph.
const MAX_NODES: usize = 6;
/// Maximum valid candidates enumerated per block (guards the exponential).
const MAX_CANDIDATES_PER_BLOCK: usize = 300;
/// Maximum number of distinct custom operations selected.
const MAX_OPS: usize = 8;

/// ISE engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct IseConfig {
    /// Area budget in adder-equivalents for all selected datapaths.
    pub area_budget: f64,
}

impl Default for IseConfig {
    fn default() -> Self {
        IseConfig { area_budget: 24.0 }
    }
}

/// One selected extension, for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedOp {
    /// The definition added to the machine and module.
    pub def: CustomOpDef,
    /// Estimated dynamic cycles saved (profile-weighted).
    pub est_saved_cycles: f64,
    /// Static instance count rewritten.
    pub instances: usize,
}

/// Outcome of an ISE run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IseReport {
    /// Selected operations in selection order.
    pub selected: Vec<SelectedOp>,
    /// Candidates considered (after signature grouping).
    pub candidates_considered: usize,
    /// Total area consumed (adder-equivalents).
    pub area_used: f64,
}

/// A candidate instance: a set of instruction indices inside one block.
#[derive(Debug, Clone, Copy)]
struct Instance {
    func: FuncId,
    block: BlockId,
    nodes: NodeSet,
}

/// A candidate pattern: definition + all its instances.
#[derive(Debug, Clone)]
struct Candidate {
    def: CustomOpDef,
    instances: Vec<Instance>,
    saved_per_exec: f64,
    exec_weight: u64,
}

/// Run ISE: identify, select under budget, and rewrite the module.
/// Returns the extended machine description and a report.
///
/// The machine must host a `Custom`-capable slot for the rewrite to be
/// usable; the caller is responsible for ensuring that (all `ember` presets
/// do).
pub fn extend(
    module: &mut Module,
    machine: &MachineDescription,
    profile: &Profile,
    cfg: &IseConfig,
) -> (MachineDescription, IseReport) {
    // 1. Enumerate candidates in every block of every function.
    let mut search = Search::default();
    for (fi, func) in module.funcs.iter().enumerate() {
        for (bi, block) in func.blocks.iter().enumerate() {
            let (func, block_id) = (FuncId(fi as u32), BlockId(bi as u32));
            let weight = profile.count(func, block_id).max(1);
            search.block(&block.insts, func, block_id, weight, machine);
        }
    }
    let Search {
        mut candidates,
        def_of_use,
        ..
    } = search;
    // Ties in the selection below go to the earlier candidate, so keep the
    // order of the signature strings.
    candidates.sort_by_cached_key(|c| signature(&c.def));
    let report_considered = candidates.len();

    // 2. Greedy selection by benefit density under the area budget.
    let mut selected: Vec<Candidate> = Vec::new();
    let mut area_used = 0.0f64;
    loop {
        if selected.len() >= MAX_OPS {
            break;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            if c.def.area + area_used > cfg.area_budget || c.instances.is_empty() {
                continue;
            }
            let benefit = c.saved_per_exec * c.exec_weight as f64;
            if benefit <= 0.0 {
                continue;
            }
            let density = benefit / c.def.area.max(0.1);
            if best.is_none_or(|(_, d)| density > d) {
                best = Some((i, density));
            }
        }
        let Some((i, _)) = best else { break };
        let c = candidates.swap_remove(i);
        area_used += c.def.area;
        selected.push(c);
    }

    // 3. Rewrite instances (non-overlapping, per block).
    let mut report = IseReport {
        selected: Vec::new(),
        candidates_considered: report_considered,
        area_used,
    };
    let mut new_machine = machine.clone();
    // One low-water mark per block, shared across *all* selected ops:
    // every applied rewrite invalidates instruction indices at and above
    // its first node. Below the mark the block is still the one the search
    // tabled, so its reaching definitions still hold there.
    let mut low_water: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for cand in selected {
        let id = module.custom_ops.len() as u16;
        module.custom_ops.push(cand.def.clone());
        new_machine.custom_ops.push(cand.def.clone());
        let mut rewritten = 0usize;
        // Per (func, block), back to front so earlier indices stay valid;
        // the sort is stable, so instances ending at the same index keep
        // their enumeration order.
        let mut order: Vec<&Instance> = cand.instances.iter().collect();
        order.sort_by_key(|i| (i.func.0, i.block.0, Reverse(i.nodes.last())));
        for inst in order {
            let key = (inst.func.0, inst.block.0);
            // Rewrites remove instructions inside [first, last] of each
            // applied instance, shifting every higher index. Processing in
            // descending `last` order, an instance is only safe if it lies
            // entirely below everything already rewritten in this block —
            // including rewrites made for previously selected ops.
            let water = low_water.entry(key).or_insert(usize::MAX);
            if inst.nodes.last() >= *water {
                continue; // indices potentially stale after earlier rewrite
            }
            let block = &mut module.funcs[key.0 as usize].blocks[key.1 as usize];
            if rewrite_instance(block, &def_of_use[&key], &inst.nodes, &cand.def, id) {
                *water = (*water).min(inst.nodes.first());
                rewritten += 1;
            }
        }
        report.selected.push(SelectedOp {
            def: cand.def,
            est_saved_cycles: cand.saved_per_exec * cand.exec_weight as f64,
            instances: rewritten,
        });
    }
    (new_machine, report)
}

/// Measure a ladder of ISE area budgets for one workload on one base
/// machine: one golden-checked evaluation per budget, submitted as a single
/// [`Session::eval_batch`](crate::session::Session::eval_batch) — the
/// search runs on the session's worker pool. Outcomes come back in budget
/// order; each carries the extended machine and selection report (see
/// [`EvalRun`](crate::session::EvalRun)).
pub fn sweep_budgets(
    session: &crate::session::Session,
    workload: &asip_workloads::Workload,
    machine: &MachineDescription,
    budgets: &[f64],
) -> Vec<crate::session::EvalOutcome> {
    let reqs: Vec<crate::session::EvalRequest> = budgets
        .iter()
        .map(|&b| crate::session::EvalRequest::new(workload.clone(), machine.clone()).with_ise(b))
        .collect();
    session.eval_batch(&reqs)
}

/// An instruction that can be a custom-datapath node: its opcode,
/// destination and `arity` operands (`vals[1]` is unused when unary).
#[derive(Debug, Clone, Copy)]
struct NodeOp {
    op: Opcode,
    dst: VReg,
    vals: [Val; 2],
    arity: u8,
}

impl NodeOp {
    fn operands(&self) -> &[Val] {
        &self.vals[..self.arity as usize]
    }
}

/// Whether an instruction can be a custom-datapath node.
fn node_op(inst: &Inst) -> Option<NodeOp> {
    match *inst {
        // Div/Rem trap; exclude them from datapaths so custom ops stay
        // speculation-neutral and cannot fault.
        Inst::Bin { op, dst, a, b }
            if !matches!(op, Opcode::Div | Opcode::Rem) && op.eval2(1, 1).is_ok() =>
        {
            Some(NodeOp {
                op,
                dst,
                vals: [a, b],
                arity: 2,
            })
        }
        Inst::Un { op, dst, a } if op != Opcode::Mov => Some(NodeOp {
            op,
            dst,
            vals: [a, Val::Imm(0)],
            arity: 1,
        }),
        _ => None,
    }
}

/// A node set: at most [`MAX_NODES`] instruction indices of one block,
/// ascending. Unused slots stay zero, so equal sets compare and hash equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeSet {
    len: u8,
    idx: [u16; MAX_NODES],
}

impl NodeSet {
    fn single(i: u16) -> NodeSet {
        let mut idx = [0; MAX_NODES];
        idx[0] = i;
        NodeSet { len: 1, idx }
    }

    fn members(&self) -> &[u16] {
        &self.idx[..self.len as usize]
    }

    fn contains(&self, i: u16) -> bool {
        self.members().contains(&i)
    }

    fn first(&self) -> usize {
        self.idx[0] as usize
    }

    fn last(&self) -> usize {
        self.idx[self.len as usize - 1] as usize
    }

    /// The set plus `e`, which is not a member; the set is not full.
    fn with(&self, e: u16) -> NodeSet {
        let n = self.len as usize;
        let at = self.members().partition_point(|&m| m < e);
        let mut out = *self;
        out.idx.copy_within(at..n, at + 1);
        out.idx[at] = e;
        out.len += 1;
        out
    }
}

/// A candidate's datapath: its nodes in ascending instruction order and its
/// outputs (`num_inputs` follows from the nodes). Every instance of one
/// shape yields the same definition, name and benefit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    len: u8,
    nodes: [PatNode; MAX_NODES],
    num_inputs: u8,
    num_outputs: u8,
    outputs: [PatRef; MAX_CUSTOM_OUTPUTS],
}

impl Shape {
    /// The definition and its estimated cycles saved per execution, or
    /// `None` when the datapath fails validation.
    fn candidate(&self, machine: &MachineDescription) -> Option<(CustomOpDef, f64)> {
        let nodes = &self.nodes[..self.len as usize];
        let outputs = self.outputs[..self.num_outputs as usize].to_vec();
        let def =
            CustomOpDef::new(&op_name(nodes), self.num_inputs, nodes.to_vec(), outputs).ok()?;

        // Benefit: software critical path through the subgraph (machine
        // latencies) minus the hardware latency of the fused op.
        let mut depth = [0u32; MAX_NODES];
        let mut crit = 0u32;
        for (k, n) in nodes.iter().enumerate() {
            let base = [n.a, n.b]
                .iter()
                .filter_map(|r| match r {
                    PatRef::Node(j) => Some(depth[*j as usize]),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            depth[k] = base + machine.latency(n.op);
            crit = crit.max(depth[k]);
        }
        // Benefit per execution: latency shortening of the fused datapath plus
        // the issue-bandwidth reclaimed by collapsing N operations into one
        // slot (worth roughly half a cycle per op removed on these machines).
        let lat_saved = crit.saturating_sub(def.latency) as f64;
        let issue_saved = 0.5 * (nodes.len() as f64 - 1.0);
        Some((def, lat_saved + issue_saved))
    }
}

/// Tiny stable hash for generated op names: the opcodes and the node count.
fn op_name(nodes: &[PatNode]) -> String {
    let mut h: u32 = 0x811C_9DC5;
    for n in nodes {
        h = h.wrapping_mul(0x0100_0193) ^ u32::from(asip_isa::codec::opcode_tag(n.op));
        h = h.wrapping_mul(0x0100_0193) ^ (nodes.len() as u32);
    }
    format!("ise{}", h % 100_000)
}

/// The structural signature candidates are ordered by: the datapath
/// listing without the name.
fn signature(def: &CustomOpDef) -> String {
    def.describe()
        .split_once(':')
        .map(|x| x.1.to_string())
        .unwrap_or_default()
}

/// One block's dataflow, in dense tables indexed by instruction.
struct Dfg {
    /// Each instruction's node-op view (`None`: not a datapath node).
    ops: Vec<Option<NodeOp>>,
    /// Per node-op operand, the in-block instruction whose definition
    /// reaches it (`None`: an immediate or a value from outside the block).
    def_of_use: Vec<[Option<u16>; 2]>,
    /// `consumers[consumers_at[i]..consumers_at[i + 1]]`: the node ops
    /// reading instruction `i`'s definition, ascending, once per operand.
    consumers_at: Vec<u32>,
    consumers: Vec<u16>,
    /// Whether a node's value may be read after the block: it is the
    /// block's final definition of its register or has no in-block reader.
    live_out: Vec<bool>,
    /// `words` words per instruction: the bitset of producers reachable
    /// from it backwards through node ops.
    ancestors: Vec<u64>,
    words: usize,
}

impl Dfg {
    /// `reaching` is scratch indexed by register number.
    fn new(insts: &[Inst], reaching: &mut Vec<Option<u16>>) -> Dfg {
        let n = insts.len();
        let ops: Vec<Option<NodeOp>> = insts.iter().map(node_op).collect();
        fn define(reaching: &mut Vec<Option<u16>>, r: VReg, i: usize) {
            let r = r.0 as usize;
            if r >= reaching.len() {
                reaching.resize(r + 1, None);
            }
            reaching[r] = Some(i as u16);
        }
        reaching.clear();
        let mut def_of_use = Vec::with_capacity(n);
        for (i, (inst, op)) in insts.iter().zip(&ops).enumerate() {
            let mut slots = [None; 2];
            match op {
                Some(op) => {
                    for (slot, v) in slots.iter_mut().zip(op.operands()) {
                        if let Val::Reg(r) = v {
                            *slot = reaching.get(r.0 as usize).copied().flatten();
                        }
                    }
                    define(reaching, op.dst, i);
                }
                None => inst.for_each_def(|d| define(reaching, d, i)),
            }
            def_of_use.push(slots);
        }

        let mut consumers_at = vec![0u32; n + 1];
        for d in def_of_use.iter().flatten().flatten() {
            consumers_at[*d as usize + 1] += 1;
        }
        for i in 0..n {
            consumers_at[i + 1] += consumers_at[i];
        }
        let mut consumers = vec![0u16; consumers_at[n] as usize];
        let mut next = consumers_at.clone();
        for (i, slots) in def_of_use.iter().enumerate() {
            for d in slots.iter().flatten() {
                let at = &mut next[*d as usize];
                consumers[*at as usize] = i as u16;
                *at += 1;
            }
        }

        let live_out = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                op.is_some_and(|op| {
                    reaching[op.dst.0 as usize] == Some(i as u16)
                        || consumers_at[i] == consumers_at[i + 1]
                })
            })
            .collect();

        let words = bitset::words(n);
        let mut ancestors = vec![0u64; n * words];
        for (i, slots) in def_of_use.iter().enumerate() {
            for d in slots.iter().flatten() {
                let d = *d as usize;
                // d < i: a reaching definition precedes its use.
                let (done, row) = ancestors.split_at_mut(i * words);
                let row = &mut row[..words];
                union_into(row, &done[d * words..(d + 1) * words]);
                set_bit(row, d);
            }
        }

        Dfg {
            ops,
            def_of_use,
            consumers_at,
            consumers,
            live_out,
            ancestors,
            words,
        }
    }

    fn consumers(&self, i: usize) -> &[u16] {
        &self.consumers[self.consumers_at[i] as usize..self.consumers_at[i + 1] as usize]
    }

    fn is_ancestor(&self, a: u16, of: u16) -> bool {
        let row = of as usize * self.words;
        has_bit(&self.ancestors[row..row + self.words], a as usize)
    }

    /// The datapath of a node set, or `None` when the set breaks a
    /// constraint: convexity, input or output ports, or no output at all.
    fn shape(&self, set: &NodeSet) -> Option<Shape> {
        // Convexity: no input produced outside the set may depend on a set
        // member (set-node → outside → set-node would be a hole).
        for &u in set.members() {
            for d in self.def_of_use[u as usize].iter().flatten() {
                if !set.contains(*d) && set.members().iter().any(|&m| self.is_ancestor(m, *d)) {
                    return None;
                }
            }
        }

        // Nodes in ascending index order (valid topological order); external
        // inputs are deduplicated by (vreg, reaching definition).
        let mut shape = Shape {
            len: set.len,
            nodes: [PatNode {
                op: Opcode::Nop,
                a: PatRef::Const(0),
                b: PatRef::Const(0),
            }; MAX_NODES],
            num_inputs: 0,
            num_outputs: 0,
            outputs: [PatRef::Const(0); MAX_CUSTOM_OUTPUTS],
        };
        let mut inputs = [(VReg(0), None); MAX_CUSTOM_INPUTS];
        for (k, &i) in set.members().iter().enumerate() {
            let op = self.ops[i as usize]?;
            let mut refs = [PatRef::Const(0); 2];
            for (s, (r, v)) in refs.iter_mut().zip(op.operands()).enumerate() {
                *r = match *v {
                    Val::Imm(c) => PatRef::Const(c),
                    Val::Reg(reg) => match self.def_of_use[i as usize][s] {
                        Some(d) if set.contains(d) => {
                            PatRef::Node(set.members().iter().position(|&m| m == d)? as u16)
                        }
                        from => {
                            let n = shape.num_inputs as usize;
                            let pos = inputs[..n]
                                .iter()
                                .position(|&x| x == (reg, from))
                                .unwrap_or(n);
                            if pos == n {
                                if n == MAX_CUSTOM_INPUTS {
                                    return None;
                                }
                                inputs[n] = (reg, from);
                                shape.num_inputs += 1;
                            }
                            PatRef::Input(pos as u8)
                        }
                    },
                };
            }
            shape.nodes[k] = PatNode {
                op: op.op,
                a: refs[0],
                b: refs[1],
            };
        }

        // Outputs: set nodes whose value is visible outside the fused op:
        // read by an in-block instruction outside the set, or possibly live
        // out of the block (see `live_out`).
        for (k, &i) in set.members().iter().enumerate() {
            let i = i as usize;
            if self.live_out[i] || self.consumers(i).iter().any(|&c| !set.contains(c)) {
                let n = shape.num_outputs as usize;
                if n == MAX_CUSTOM_OUTPUTS {
                    return None;
                }
                shape.outputs[n] = PatRef::Node(k as u16);
                shape.num_outputs += 1;
            }
        }
        (shape.num_outputs > 0).then_some(shape)
    }
}

/// The candidate search: the distinct shapes found so far with their
/// instances, plus scratch reused from block to block.
#[derive(Default)]
struct Search {
    /// Each shape's index in `candidates`, or `None` when its definition
    /// fails validation.
    shapes: HashMap<Shape, Option<usize>>,
    candidates: Vec<Candidate>,
    /// The reaching definitions of each block with an instance, which the
    /// rewrite reads.
    def_of_use: BTreeMap<(u32, u32), Vec<[Option<u16>; 2]>>,
    seen: HashSet<NodeSet>,
    stack: Vec<NodeSet>,
    grow: Vec<u16>,
    reaching: Vec<Option<u16>>,
}

impl Search {
    /// Seed-and-grow enumeration of one block, deduplicated on node sets.
    fn block(
        &mut self,
        insts: &[Inst],
        func: FuncId,
        block: BlockId,
        weight: u64,
        machine: &MachineDescription,
    ) {
        // Node indices are u16; a longer block is not searched.
        if insts.len() > usize::from(u16::MAX) {
            return;
        }
        let dfg = Dfg::new(insts, &mut self.reaching);
        self.seen.clear();
        self.stack.clear();
        self.stack.extend(
            (0..insts.len())
                .filter(|&i| dfg.ops[i].is_some())
                .map(|i| NodeSet::single(i as u16)),
        );
        let mut emitted = 0usize;
        while let Some(set) = self.stack.pop() {
            if emitted >= MAX_CANDIDATES_PER_BLOCK {
                break;
            }
            if !self.seen.insert(set) {
                continue;
            }
            if set.len >= 2 {
                if let Some(shape) = dfg.shape(&set) {
                    let candidates = &mut self.candidates;
                    let entry = *self.shapes.entry(shape).or_insert_with(|| {
                        let (def, saved_per_exec) = shape.candidate(machine)?;
                        candidates.push(Candidate {
                            def,
                            instances: Vec::new(),
                            saved_per_exec,
                            exec_weight: 0,
                        });
                        Some(candidates.len() - 1)
                    });
                    if let Some(c) = entry {
                        let c = &mut self.candidates[c];
                        c.instances.push(Instance {
                            func,
                            block,
                            nodes: set,
                        });
                        c.exec_weight += weight;
                        emitted += 1;
                    }
                }
            }
            // Grow: add a producer or consumer of any node in the set.
            if (set.len as usize) < MAX_NODES {
                self.grow.clear();
                for &i in set.members() {
                    let i = i as usize;
                    let producers = dfg.def_of_use[i].into_iter().flatten();
                    self.grow
                        .extend(producers.filter(|&d| dfg.ops[d as usize].is_some()));
                    self.grow.extend_from_slice(dfg.consumers(i));
                }
                self.grow.sort_unstable();
                self.grow.dedup();
                for &e in &self.grow {
                    if !set.contains(e) {
                        self.stack.push(set.with(e));
                    }
                }
            }
        }
        if emitted > 0 {
            self.def_of_use.insert((func.0, block.0), dfg.def_of_use);
        }
    }
}

/// Rewrite one instance: remove the member instructions, insert the custom
/// op at the last member's position. Returns false (leaving the block
/// untouched) if safety checks fail. `def_of_use` is the block's table
/// from the search, valid up to the instance's last member.
fn rewrite_instance(
    block: &mut Block,
    def_of_use: &[[Option<u16>; 2]],
    set: &NodeSet,
    def: &CustomOpDef,
    id: u16,
) -> bool {
    let (first, last) = (set.first(), set.last());
    let insts = &block.insts;
    let mut ops = Vec::with_capacity(MAX_NODES);
    for &i in set.members() {
        let Some(op) = node_op(&insts[i as usize]) else {
            return false;
        };
        ops.push(op);
    }

    // Safety: between first and last, outside instructions must not
    // (a) define any register the subgraph reads or writes, or
    // (b) read any subgraph-defined register.
    let writes = |r: VReg| ops.iter().any(|op| op.dst == r);
    let reads = |r: VReg| ops.iter().any(|op| op.operands().contains(&Val::Reg(r)));
    for (j, other) in insts.iter().enumerate().take(last + 1).skip(first) {
        if set.contains(j as u16) {
            continue;
        }
        let mut conflict = false;
        other.for_each_def(|d| conflict |= reads(d) || writes(d));
        other.for_each_use(|u| conflict |= writes(u));
        if conflict {
            return false;
        }
    }

    // Map inputs in the search's dedup order.
    let mut inputs: Vec<(VReg, Option<u16>)> = Vec::with_capacity(MAX_CUSTOM_INPUTS);
    let mut args: Vec<Val> = Vec::with_capacity(MAX_CUSTOM_INPUTS);
    for (op, &i) in ops.iter().zip(set.members()) {
        for (s, v) in op.operands().iter().enumerate() {
            if let Val::Reg(reg) = *v {
                let from = def_of_use[i as usize][s];
                if from.is_some_and(|d| set.contains(d)) {
                    continue; // internal edge
                }
                if !inputs.contains(&(reg, from)) {
                    inputs.push((reg, from));
                    args.push(Val::Reg(reg));
                }
            }
        }
    }
    if args.len() != def.num_inputs as usize {
        return false; // instance diverged from the canonical pattern
    }

    // Outputs: nodes listed in def.outputs (PatRef::Node indices map to the
    // k-th member of `set`).
    let mut out_dsts: Vec<VReg> = Vec::with_capacity(def.outputs.len());
    for o in &def.outputs {
        match o {
            PatRef::Node(k) => out_dsts.push(ops[*k as usize].dst),
            _ => return false,
        }
    }
    if (1..out_dsts.len()).any(|k| out_dsts[..k].contains(&out_dsts[k])) {
        return false; // two outputs share a destination register
    }

    // Apply: remove members (back to front), insert custom op where the
    // last member was.
    let custom = Inst::Custom {
        id,
        dsts: out_dsts,
        args,
    };
    for &i in set.members().iter().rev().skip(1) {
        block.insts.remove(i as usize);
    }
    block.insts[last + 1 - set.len as usize] = custom;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CompiledArtifact, Toolchain};
    use asip_ir::interp::run_module;

    fn profiled(src: &str, args: &[i32]) -> (Module, Profile) {
        let tc = Toolchain::default();
        let module = tc.frontend(src).unwrap();
        let r = run_module(&module, "main", args).unwrap();
        (module, r.profile)
    }

    #[test]
    fn finds_mac_pattern_in_dot_product() {
        let src = r#"
            int x[64];
            int h[64];
            void main(int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i++) acc += x[i] * h[i];
                emit(acc);
            }
        "#;
        let (mut module, profile) = profiled(src, &[64]);
        let machine = MachineDescription::ember4();
        let (new_machine, report) = extend(&mut module, &machine, &profile, &IseConfig::default());
        assert!(
            !report.selected.is_empty(),
            "a MAC-like pattern should be found"
        );
        assert!(new_machine.custom_ops.len() > machine.custom_ops.len());
        // The rewritten module must still verify and produce the same output.
        assert_eq!(asip_ir::func::verify(&module), Ok(()));
        let has_custom = module
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .any(|i| matches!(i, Inst::Custom { .. }));
        assert!(has_custom, "rewrite must introduce custom ops");
    }

    #[test]
    fn rewritten_module_is_semantically_identical() {
        let src = r#"
            int x[32];
            void main(int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i++) {
                    int t = x[i] * 3 + (x[i] >> 2);
                    acc ^= t + i;
                }
                emit(acc);
            }
        "#;
        let tc = Toolchain::default();
        let module0 = tc.frontend(src).unwrap();
        let mut module1 = module0.clone();
        let r = run_module(&module0, "main", &[32]).unwrap();
        let machine = MachineDescription::ember4();
        let (_, report) = extend(&mut module1, &machine, &r.profile, &IseConfig::default());
        assert!(report.candidates_considered > 0);
        for n in [0, 7, 32] {
            let a = run_module(&module0, "main", &[n]).unwrap();
            let b = run_module(&module1, "main", &[n]).unwrap();
            assert_eq!(a.output, b.output, "n={n}");
        }
    }

    /// 40 unrolled rounds of a three-statement recurrence: one straight-line
    /// block of about 200 instructions, where the search visits thousands
    /// of node sets before the per-block cap stops it.
    fn chain_source() -> String {
        let mut src = String::from("void main(int s, int i) {\n");
        for _ in 0..40 {
            src.push_str("    s = s * 3 + i; s = s ^ (s >> 1); i = i + s;\n");
        }
        src.push_str("    emit(s + i);\n}\n");
        src
    }

    #[test]
    fn long_chain_block_selects_the_recorded_ops() {
        let (module, profile) = profiled(&chain_source(), &[3, 5]);
        let machine = MachineDescription::ember4();
        for (budget, ops, instances) in [(32.0, 7, 41), (8.0, 4, 40)] {
            let mut m = module.clone();
            let cfg = IseConfig {
                area_budget: budget,
            };
            let (_, report) = extend(&mut m, &machine, &profile, &cfg);
            let rewritten: usize = report.selected.iter().map(|s| s.instances).sum();
            assert_eq!(
                (
                    report.candidates_considered,
                    report.selected.len(),
                    rewritten
                ),
                (7, ops, instances),
                "budget {budget}"
            );
            let a = run_module(&module, "main", &[3, 5]).unwrap();
            let b = run_module(&m, "main", &[3, 5]).unwrap();
            assert_eq!(a.output, b.output, "budget {budget}");
        }
    }

    #[test]
    fn budget_zero_selects_nothing() {
        let src = "void main(int a, int b) { emit(a * b + a - b); }";
        let (mut module, profile) = profiled(src, &[3, 4]);
        let machine = MachineDescription::ember4();
        let cfg = IseConfig { area_budget: 0.0 };
        let (m2, report) = extend(&mut module, &machine, &profile, &cfg);
        assert!(report.selected.is_empty());
        assert_eq!(m2.custom_ops.len(), machine.custom_ops.len());
    }

    #[test]
    fn larger_budget_never_selects_fewer() {
        let w = asip_workloads::by_name("median").unwrap();
        let tc = Toolchain::default();
        let module = tc.frontend(&w.source).unwrap();
        let profile = tc.profile(&module, &w.inputs, &w.args).unwrap();
        let machine = MachineDescription::ember4();
        let mut counts = Vec::new();
        for budget in [2.0, 8.0, 32.0] {
            let mut m = module.clone();
            let cfg = IseConfig {
                area_budget: budget,
            };
            let (_, report) = extend(&mut m, &machine, &profile, &cfg);
            counts.push(report.selected.len());
        }
        assert!(
            counts[0] <= counts[2],
            "selection must grow with budget: {counts:?}"
        );
    }

    #[test]
    fn budget_sweep_runs_batched_and_ordered() {
        let session = crate::session::Session::builder().threads(4).build();
        let w = asip_workloads::by_name("yuv2rgb").unwrap();
        let machine = MachineDescription::ember1();
        let budgets = [0.0, 16.0, 64.0];
        let out = sweep_budgets(&session, &w, &machine, &budgets);
        assert_eq!(out.len(), budgets.len());
        let base = out[0].cycles().expect("budget 0 runs");
        let at_max = out[2].cycles().expect("budget 64 runs");
        assert!(
            at_max <= base,
            "custom ops must not slow the 1-issue machine: {at_max} vs {base}"
        );
        assert!(out[0].result.as_ref().unwrap().ise.is_none());
        let at64 = out[2].result.as_ref().unwrap();
        assert!(at64.ise.as_ref().is_some_and(|r| !r.selected.is_empty()));
    }

    #[test]
    fn end_to_end_with_custom_ops_on_simulator() {
        let w = asip_workloads::by_name("yuv2rgb").unwrap();
        let tc = Toolchain::default();
        let mut module = tc.frontend(&w.source).unwrap();
        let profile = tc.profile(&module, &w.inputs, &w.args).unwrap();
        let machine = MachineDescription::ember4();
        let (machine2, report) = extend(&mut module, &machine, &profile, &IseConfig::default());
        assert!(
            !report.selected.is_empty(),
            "yuv2rgb should yield fused ops"
        );
        let compiled = tc.compile_for(&module, &machine2, Some(&profile)).unwrap();
        assert!(matches!(compiled, CompiledArtifact::Vliw(_)));
        let run = tc.run_artifact(&w, &machine2, &compiled);
        let run = run.expect("custom-op build must stay correct");
        assert_eq!(run.sim.output, w.expected);
    }
}
