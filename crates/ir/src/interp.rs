//! Reference IR interpreter.
//!
//! The interpreter serves three roles in the toolchain:
//!
//! 1. **Golden model** — every compiled program must produce exactly the
//!    output the interpreter produces (differential testing of the whole
//!    backend and simulator);
//! 2. **Profiler** — block execution counts feed profile-guided superblock
//!    selection in the backend ("statistical profiling", paper §2.2);
//! 3. **ISE oracle** — the custom-instruction engine estimates dynamic gains
//!    from the same counts.

use crate::func::{Function, Module};
use crate::inst::{Addr, AddrBase, BlockId, FuncId, Inst, Terminator, VReg, Val};
use asip_isa::image::Image;
use std::collections::HashMap;
use std::fmt;

/// Interpreter limits and sizes.
#[derive(Debug, Clone, Copy)]
pub struct InterpOptions {
    /// Data memory size in words.
    pub memory_words: u32,
    /// Hard cap on executed instructions.
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: u32,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            memory_words: 1 << 20,
            max_steps: 200_000_000,
            max_depth: 256,
        }
    }
}

/// Runtime error during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Integer division by zero.
    DivByZero,
    /// Memory access outside the data segment.
    OutOfBounds(i64),
    /// Executed more than `max_steps` instructions.
    StepLimit,
    /// Call depth exceeded `max_depth`.
    StackOverflow,
    /// The requested entry function does not exist.
    NoEntry(String),
    /// A custom operation failed to evaluate.
    BadCustom(String),
    /// Stack and globals collided (out of data memory).
    OutOfMemory,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivByZero => write!(f, "integer division by zero"),
            InterpError::OutOfBounds(a) => write!(f, "memory access out of bounds at {a}"),
            InterpError::StepLimit => write!(f, "instruction step limit exceeded"),
            InterpError::StackOverflow => write!(f, "call depth limit exceeded"),
            InterpError::NoEntry(n) => write!(f, "no function named {n:?}"),
            InterpError::BadCustom(m) => write!(f, "custom op failed: {m}"),
            InterpError::OutOfMemory => write!(f, "stack collided with global data"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Dynamic profile: per-function, per-block execution counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// `counts[func][block]` = number of times the block was entered.
    pub counts: HashMap<u32, Vec<u64>>,
}

impl Profile {
    /// Execution count of `block` in `func` (0 when never profiled).
    pub fn count(&self, func: FuncId, block: BlockId) -> u64 {
        self.counts
            .get(&func.0)
            .and_then(|v| v.get(block.0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Probability that the terminator branch of `block` goes to its first
    /// (taken) successor, estimated from successor entry counts. `None` when
    /// there is no data.
    pub fn taken_probability(&self, f: &Function, func: FuncId, block: BlockId) -> Option<f64> {
        if let Terminator::Branch { t, f: fl, .. } = f.block(block).term {
            let ct = self.count(func, t) as f64;
            let cf = self.count(func, fl) as f64;
            if ct + cf > 0.0 {
                return Some(ct / (ct + cf));
            }
        }
        None
    }
}

/// Result of a successful run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpResult {
    /// Values emitted by `Emit` instructions, in order.
    pub output: Vec<i32>,
    /// Return value of the entry function, if any.
    pub ret: Option<i32>,
    /// Instructions executed.
    pub steps: u64,
    /// Block-level execution profile.
    pub profile: Profile,
    /// Final static data: the words from address 0 to the end of the last
    /// global, where every global lives (see [`Interp::global_addr`]). The
    /// stack above is per-run scratch.
    pub memory: Vec<i32>,
}

/// The interpreter: owns memory layout and run state.
#[derive(Debug)]
pub struct Interp<'m> {
    module: &'m Module,
    opts: InterpOptions,
    global_addr: Vec<u32>,
    memory: Image,
    output: Vec<i32>,
    steps: u64,
    profile: Profile,
    data_top: u32,
}

impl<'m> Interp<'m> {
    /// Build an interpreter for `module`, laying out globals from address 0.
    pub fn new(module: &'m Module, opts: InterpOptions) -> Interp<'m> {
        let mut global_addr = Vec::with_capacity(module.globals.len());
        let mut addr = 0u32;
        for g in &module.globals {
            global_addr.push(addr);
            addr += g.words;
        }
        let mut memory = Image::zeroed(opts.memory_words as usize);
        for (g, &base) in module.globals.iter().zip(&global_addr) {
            for (i, &v) in g.init.iter().enumerate() {
                if (base as usize + i) < memory.len() {
                    memory[base as usize + i] = v;
                }
            }
        }
        Interp {
            module,
            opts,
            global_addr,
            memory,
            output: Vec::new(),
            steps: 0,
            profile: Profile::default(),
            data_top: addr,
        }
    }

    /// Word address of a global's first element.
    pub fn global_addr(&self, name: &str) -> Option<u32> {
        let id = self.module.global_id(name)?;
        self.global_addr.get(id.0 as usize).copied()
    }

    /// Overwrite a global's contents before running (workload inputs).
    pub fn write_global(&mut self, name: &str, data: &[i32]) -> bool {
        let Some(base) = self.global_addr(name) else {
            return false;
        };
        let Some(id) = self.module.global_id(name) else {
            return false;
        };
        let words = self.module.globals[id.0 as usize].words as usize;
        for (i, &v) in data.iter().take(words).enumerate() {
            self.memory[base as usize + i] = v;
        }
        true
    }

    /// Read a global's contents (e.g. after a run).
    pub fn read_global(&self, name: &str) -> Option<Vec<i32>> {
        let base = self.global_addr(name)? as usize;
        let id = self.module.global_id(name)?;
        let words = self.module.globals[id.0 as usize].words as usize;
        Some(self.memory[base..base + words].to_vec())
    }

    /// Run `entry(args...)` to completion.
    ///
    /// # Errors
    ///
    /// Any [`InterpError`] raised during execution.
    pub fn run(mut self, entry: &str, args: &[i32]) -> Result<InterpResult, InterpError> {
        let fid = self
            .module
            .func_id(entry)
            .ok_or_else(|| InterpError::NoEntry(entry.to_string()))?;
        let sp = self.opts.memory_words;
        let ret = self.call(fid, args, sp, 0)?;
        Ok(InterpResult {
            output: self.output,
            ret,
            steps: self.steps,
            profile: self.profile,
            memory: self.memory[..self.memory.len().min(self.data_top as usize)].to_vec(),
        })
    }

    fn mem_read(&self, addr: i64) -> Result<i32, InterpError> {
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(InterpError::OutOfBounds(addr));
        }
        Ok(self.memory[addr as usize])
    }

    fn mem_write(&mut self, addr: i64, v: i32) -> Result<(), InterpError> {
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(InterpError::OutOfBounds(addr));
        }
        self.memory[addr as usize] = v;
        Ok(())
    }

    fn call(
        &mut self,
        fid: FuncId,
        args: &[i32],
        sp: u32,
        depth: u32,
    ) -> Result<Option<i32>, InterpError> {
        if depth > self.opts.max_depth {
            return Err(InterpError::StackOverflow);
        }
        let func = &self.module.funcs[fid.0 as usize];
        // Frame: local arrays packed below the caller's stack pointer.
        let local_words: u32 = func.locals.iter().map(|l| l.words).sum();
        if sp < local_words || sp - local_words < self.data_top {
            return Err(InterpError::OutOfMemory);
        }
        let frame_base = sp - local_words;
        let mut local_addr = Vec::with_capacity(func.locals.len());
        {
            let mut a = frame_base;
            for l in &func.locals {
                local_addr.push(a);
                a += l.words;
            }
        }

        let mut regs = vec![0i32; func.num_vregs as usize];
        for (i, &a) in args.iter().enumerate().take(func.num_params as usize) {
            regs[i] = a;
        }

        let val = |v: Val, regs: &[i32]| -> i32 {
            match v {
                Val::Reg(VReg(r)) => regs[r as usize],
                Val::Imm(k) => k,
            }
        };
        let addr_of = |a: &Addr, regs: &[i32], global_addr: &[u32], local_addr: &[u32]| -> i64 {
            let base: i64 = match a.base {
                AddrBase::Reg(VReg(r)) => i64::from(regs[r as usize]),
                AddrBase::Global(g) => i64::from(global_addr[g.0 as usize]),
                AddrBase::Local(l) => i64::from(local_addr[l.0 as usize]),
            };
            base + i64::from(a.off)
        };

        let mut block = func.entry;
        loop {
            *self
                .profile
                .counts
                .entry(fid.0)
                .or_insert_with(|| vec![0; func.blocks.len()])
                .get_mut(block.0 as usize)
                .expect("block in range") += 1;

            // Clone the instruction list reference by index to satisfy the
            // borrow checker across the recursive `call` below.
            let ninsts = func.block(block).insts.len();
            for ii in 0..ninsts {
                self.steps += 1;
                if self.steps > self.opts.max_steps {
                    return Err(InterpError::StepLimit);
                }
                let inst = func.block(block).insts[ii].clone();
                match inst {
                    Inst::Bin { op, dst, a, b } => {
                        let (x, y) = (val(a, &regs), val(b, &regs));
                        let r = op.eval2(x, y).map_err(|e| match e {
                            asip_isa::EvalError::DivideByZero => InterpError::DivByZero,
                            asip_isa::EvalError::NotArithmetic => {
                                InterpError::BadCustom(format!("non-arith bin op {op}"))
                            }
                        })?;
                        regs[dst.0 as usize] = r;
                    }
                    Inst::Un { op, dst, a } => {
                        let x = val(a, &regs);
                        let r = op
                            .eval1(x)
                            .map_err(|_| InterpError::BadCustom(format!("non-arith un op {op}")))?;
                        regs[dst.0 as usize] = r;
                    }
                    Inst::Select { dst, c, a, b } => {
                        regs[dst.0 as usize] = if val(c, &regs) != 0 {
                            val(a, &regs)
                        } else {
                            val(b, &regs)
                        };
                    }
                    Inst::Lea { dst, addr } => {
                        let a = addr_of(&addr, &regs, &self.global_addr, &local_addr);
                        regs[dst.0 as usize] = a as i32;
                    }
                    Inst::Load { dst, addr } => {
                        let a = addr_of(&addr, &regs, &self.global_addr, &local_addr);
                        regs[dst.0 as usize] = self.mem_read(a)?;
                    }
                    Inst::Store { val: v, addr } => {
                        let a = addr_of(&addr, &regs, &self.global_addr, &local_addr);
                        let x = val(v, &regs);
                        self.mem_write(a, x)?;
                    }
                    Inst::Call {
                        dst,
                        func: callee,
                        args,
                    } => {
                        let argv: Vec<i32> = args.iter().map(|&a| val(a, &regs)).collect();
                        let r = self.call(callee, &argv, frame_base, depth + 1)?;
                        if let Some(d) = dst {
                            regs[d.0 as usize] = r.unwrap_or(0);
                        }
                    }
                    Inst::Custom { id, dsts, args } => {
                        let def = self
                            .module
                            .custom_ops
                            .get(id as usize)
                            .ok_or_else(|| InterpError::BadCustom(format!("no op {id}")))?;
                        let argv: Vec<i32> = args.iter().map(|&a| val(a, &regs)).collect();
                        let outs = def.eval(&argv).map_err(|e| {
                            if matches!(
                                e,
                                asip_isa::CustomOpError::Eval(asip_isa::EvalError::DivideByZero)
                            ) {
                                InterpError::DivByZero
                            } else {
                                InterpError::BadCustom(e.to_string())
                            }
                        })?;
                        for (d, o) in dsts.iter().zip(outs) {
                            regs[d.0 as usize] = o;
                        }
                    }
                    Inst::Emit { val: v } => {
                        let x = val(v, &regs);
                        self.output.push(x);
                    }
                }
            }

            self.steps += 1;
            if self.steps > self.opts.max_steps {
                return Err(InterpError::StepLimit);
            }
            match func.block(block).term {
                Terminator::Jump(b) => block = b,
                Terminator::Branch { c, t, f } => {
                    block = if val(c, &regs) != 0 { t } else { f };
                }
                Terminator::Ret(v) => {
                    return Ok(v.map(|v| val(v, &regs)));
                }
            }
        }
    }
}

/// One-call convenience: interpret `entry(args...)` of `module` with default
/// options.
///
/// # Errors
///
/// Any [`InterpError`] raised during execution.
pub fn run_module(module: &Module, entry: &str, args: &[i32]) -> Result<InterpResult, InterpError> {
    Interp::new(module, InterpOptions::default()).run(entry, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, Function, GlobalData, LocalData, Module};
    use crate::inst::*;
    use asip_isa::Opcode;

    fn module_with(f: Function) -> Module {
        Module {
            funcs: vec![f],
            globals: vec![],
            custom_ops: vec![],
        }
    }

    #[test]
    fn arithmetic_and_emit() {
        let mut f = Function::new("main", 0, true);
        let v = f.new_vreg();
        f.blocks[0] = Block {
            insts: vec![
                Inst::Bin {
                    op: Opcode::Mul,
                    dst: v,
                    a: Val::Imm(6),
                    b: Val::Imm(7),
                },
                Inst::Emit { val: Val::Reg(v) },
            ],
            term: Terminator::Ret(Some(Val::Reg(v))),
        };
        let r = run_module(&module_with(f), "main", &[]).unwrap();
        assert_eq!(r.output, vec![42]);
        assert_eq!(r.ret, Some(42));
    }

    #[test]
    fn loop_sums_range() {
        // sum = 0; i = 0; while (i < n) { sum += i; i += 1 } emit sum
        let mut f = Function::new("main", 1, false);
        let sum = f.new_vreg();
        let i = f.new_vreg();
        let c = f.new_vreg();
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.blocks[0] = Block {
            insts: vec![
                Inst::Un {
                    op: Opcode::Mov,
                    dst: sum,
                    a: Val::Imm(0),
                },
                Inst::Un {
                    op: Opcode::Mov,
                    dst: i,
                    a: Val::Imm(0),
                },
            ],
            term: Terminator::Jump(header),
        };
        f.block_mut(header).insts.push(Inst::Bin {
            op: Opcode::CmpLt,
            dst: c,
            a: Val::Reg(i),
            b: Val::Reg(VReg(0)),
        });
        f.block_mut(header).term = Terminator::Branch {
            c: Val::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).insts.extend([
            Inst::Bin {
                op: Opcode::Add,
                dst: sum,
                a: Val::Reg(sum),
                b: Val::Reg(i),
            },
            Inst::Bin {
                op: Opcode::Add,
                dst: i,
                a: Val::Reg(i),
                b: Val::Imm(1),
            },
        ]);
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit)
            .insts
            .push(Inst::Emit { val: Val::Reg(sum) });
        f.block_mut(exit).term = Terminator::Ret(None);

        let r = run_module(&module_with(f), "main", &[10]).unwrap();
        assert_eq!(r.output, vec![45]);
        // Profile: body ran 10 times, header 11.
        assert_eq!(r.profile.count(FuncId(0), BlockId(1)), 11);
        assert_eq!(r.profile.count(FuncId(0), BlockId(2)), 10);
    }

    #[test]
    fn globals_load_store() {
        let mut f = Function::new("main", 0, false);
        let v = f.new_vreg();
        f.blocks[0] = Block {
            insts: vec![
                Inst::Load {
                    dst: v,
                    addr: Addr {
                        base: AddrBase::Global(GlobalId(0)),
                        off: 1,
                    },
                },
                Inst::Bin {
                    op: Opcode::Add,
                    dst: v,
                    a: Val::Reg(v),
                    b: Val::Imm(100),
                },
                Inst::Store {
                    val: Val::Reg(v),
                    addr: Addr {
                        base: AddrBase::Global(GlobalId(0)),
                        off: 2,
                    },
                },
                Inst::Emit { val: Val::Reg(v) },
            ],
            term: Terminator::Ret(None),
        };
        let m = Module {
            funcs: vec![f],
            globals: vec![GlobalData {
                name: "tab".into(),
                words: 4,
                init: vec![5, 7],
            }],
            custom_ops: vec![],
        };
        let interp = Interp::new(&m, InterpOptions::default());
        let r = interp.run("main", &[]).unwrap();
        assert_eq!(r.output, vec![107]);
        assert_eq!(r.memory, vec![5, 7, 107, 0]);
    }

    #[test]
    fn local_arrays_are_per_frame() {
        // f(x): local a[2]; a[0] = x; return a[0] + 1
        let mut callee = Function::new("f", 1, true);
        callee.locals.push(LocalData {
            name: "a".into(),
            words: 2,
        });
        let t = callee.new_vreg();
        callee.blocks[0] = Block {
            insts: vec![
                Inst::Store {
                    val: Val::Reg(VReg(0)),
                    addr: Addr::local(LocalSlot(0)),
                },
                Inst::Load {
                    dst: t,
                    addr: Addr::local(LocalSlot(0)),
                },
                Inst::Bin {
                    op: Opcode::Add,
                    dst: t,
                    a: Val::Reg(t),
                    b: Val::Imm(1),
                },
            ],
            term: Terminator::Ret(Some(Val::Reg(t))),
        };
        let mut main = Function::new("main", 0, false);
        let r1 = main.new_vreg();
        let r2 = main.new_vreg();
        main.blocks[0] = Block {
            insts: vec![
                Inst::Call {
                    dst: Some(r1),
                    func: FuncId(1),
                    args: vec![Val::Imm(10)],
                },
                Inst::Call {
                    dst: Some(r2),
                    func: FuncId(1),
                    args: vec![Val::Imm(20)],
                },
                Inst::Emit { val: Val::Reg(r1) },
                Inst::Emit { val: Val::Reg(r2) },
            ],
            term: Terminator::Ret(None),
        };
        let m = Module {
            funcs: vec![main, callee],
            globals: vec![],
            custom_ops: vec![],
        };
        let r = run_module(&m, "main", &[]).unwrap();
        assert_eq!(r.output, vec![11, 21]);
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut f = Function::new("main", 1, false);
        let v = f.new_vreg();
        f.blocks[0] = Block {
            insts: vec![Inst::Bin {
                op: Opcode::Div,
                dst: v,
                a: Val::Imm(1),
                b: Val::Reg(VReg(0)),
            }],
            term: Terminator::Ret(None),
        };
        let e = run_module(&module_with(f), "main", &[0]).unwrap_err();
        assert_eq!(e, InterpError::DivByZero);
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut f = Function::new("main", 0, false);
        let v = f.new_vreg();
        f.blocks[0] = Block {
            insts: vec![Inst::Load {
                dst: v,
                addr: Addr {
                    base: AddrBase::Reg(v),
                    off: -5,
                },
            }],
            term: Terminator::Ret(None),
        };
        let e = run_module(&module_with(f), "main", &[]).unwrap_err();
        assert!(matches!(e, InterpError::OutOfBounds(_)));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut f = Function::new("main", 0, false);
        f.blocks[0].term = Terminator::Jump(BlockId(0));
        let m = module_with(f);
        let e = Interp::new(
            &m,
            InterpOptions {
                max_steps: 1000,
                ..Default::default()
            },
        )
        .run("main", &[])
        .unwrap_err();
        assert_eq!(e, InterpError::StepLimit);
    }

    #[test]
    fn taken_probability_from_profile() {
        // Loop that runs 9 body iterations out of 10 header visits.
        let mut f = Function::new("main", 1, false);
        let i = f.new_vreg();
        let c = f.new_vreg();
        let body = f.new_block();
        let exit = f.new_block();
        let header = BlockId(0);
        f.blocks[0].insts.push(Inst::Bin {
            op: Opcode::CmpLt,
            dst: c,
            a: Val::Reg(i),
            b: Val::Reg(VReg(0)),
        });
        f.blocks[0].term = Terminator::Branch {
            c: Val::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).insts.push(Inst::Bin {
            op: Opcode::Add,
            dst: i,
            a: Val::Reg(i),
            b: Val::Imm(1),
        });
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Ret(None);
        // i starts as param v0? No: i is v1; v0 is n. i initial = 0 by default regs.
        let m = module_with(f);
        let r = run_module(&m, "main", &[9]).unwrap();
        let p = r
            .profile
            .taken_probability(&m.funcs[0], FuncId(0), header)
            .unwrap();
        assert!(p > 0.85 && p < 0.95, "p = {p}");
    }
}
