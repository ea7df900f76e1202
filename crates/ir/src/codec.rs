//! [`Codec`] implementations for the IR artifact kinds the persistent
//! artifact cache stores: whole [`Module`]s (the Parse and Optimize stage
//! outputs) and interpreter [`Profile`]s (the Profile stage output), plus
//! the [`OptConfig`] the Optimize stage's cache key holds.
//!
//! Built on the byte-level primitives and format discipline of
//! [`asip_isa::codec`]; see that module for the tag/length conventions. The
//! only non-mechanical choice here is [`Profile`]: its backing `HashMap`
//! iterates in arbitrary order, so entries are encoded **sorted by function
//! id** — equal profiles always encode to identical bytes, which the cache
//! relies on for deterministic write-through. A [`Module`] decode also
//! runs [`verify`], so every decoded module meets the index invariants its
//! users rely on.

use crate::func::{verify, Block, Function, GlobalData, LocalData, Module};
use crate::inst::{
    Addr, AddrBase, BlockId, FuncId, GlobalId, Inst, LocalSlot, Terminator, VReg, Val,
};
use crate::interp::Profile;
use crate::passes::{InlineConfig, OptConfig, UnrollConfig};
use asip_isa::codec::{Codec, CodecError, Reader, Writer};
use asip_isa::Opcode;
use std::collections::HashMap;

macro_rules! impl_codec_id {
    ($($t:ident),* $(,)?) => {$(
        impl Codec for $t {
            fn encode(&self, w: &mut Writer) {
                w.put_u32(self.0);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($t(r.get_u32()?))
            }
        }
    )*};
}

impl_codec_id!(VReg, BlockId, FuncId, GlobalId, LocalSlot);

impl Codec for Val {
    fn encode(&self, w: &mut Writer) {
        match self {
            Val::Reg(r) => {
                w.put_u8(0);
                r.encode(w);
            }
            Val::Imm(v) => {
                w.put_u8(1);
                w.put_i32(*v);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Val::Reg(VReg::decode(r)?)),
            1 => Ok(Val::Imm(r.get_i32()?)),
            tag => Err(CodecError::BadTag {
                what: "Val",
                tag: tag.into(),
            }),
        }
    }
}

impl Codec for AddrBase {
    fn encode(&self, w: &mut Writer) {
        match self {
            AddrBase::Reg(r) => {
                w.put_u8(0);
                r.encode(w);
            }
            AddrBase::Global(g) => {
                w.put_u8(1);
                g.encode(w);
            }
            AddrBase::Local(l) => {
                w.put_u8(2);
                l.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(AddrBase::Reg(VReg::decode(r)?)),
            1 => Ok(AddrBase::Global(GlobalId::decode(r)?)),
            2 => Ok(AddrBase::Local(LocalSlot::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "AddrBase",
                tag: tag.into(),
            }),
        }
    }
}

impl Codec for Addr {
    fn encode(&self, w: &mut Writer) {
        self.base.encode(w);
        w.put_i32(self.off);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Addr {
            base: AddrBase::decode(r)?,
            off: r.get_i32()?,
        })
    }
}

impl Codec for Inst {
    fn encode(&self, w: &mut Writer) {
        match self {
            Inst::Bin { op, dst, a, b } => {
                w.put_u8(0);
                op.encode(w);
                dst.encode(w);
                a.encode(w);
                b.encode(w);
            }
            Inst::Un { op, dst, a } => {
                w.put_u8(1);
                op.encode(w);
                dst.encode(w);
                a.encode(w);
            }
            Inst::Select { dst, c, a, b } => {
                w.put_u8(2);
                dst.encode(w);
                c.encode(w);
                a.encode(w);
                b.encode(w);
            }
            Inst::Lea { dst, addr } => {
                w.put_u8(3);
                dst.encode(w);
                addr.encode(w);
            }
            Inst::Load { dst, addr } => {
                w.put_u8(4);
                dst.encode(w);
                addr.encode(w);
            }
            Inst::Store { val, addr } => {
                w.put_u8(5);
                val.encode(w);
                addr.encode(w);
            }
            Inst::Call { dst, func, args } => {
                w.put_u8(6);
                dst.encode(w);
                func.encode(w);
                args.encode(w);
            }
            Inst::Custom { id, dsts, args } => {
                w.put_u8(7);
                w.put_u16(*id);
                dsts.encode(w);
                args.encode(w);
            }
            Inst::Emit { val } => {
                w.put_u8(8);
                val.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => Inst::Bin {
                op: Opcode::decode(r)?,
                dst: VReg::decode(r)?,
                a: Val::decode(r)?,
                b: Val::decode(r)?,
            },
            1 => Inst::Un {
                op: Opcode::decode(r)?,
                dst: VReg::decode(r)?,
                a: Val::decode(r)?,
            },
            2 => Inst::Select {
                dst: VReg::decode(r)?,
                c: Val::decode(r)?,
                a: Val::decode(r)?,
                b: Val::decode(r)?,
            },
            3 => Inst::Lea {
                dst: VReg::decode(r)?,
                addr: Addr::decode(r)?,
            },
            4 => Inst::Load {
                dst: VReg::decode(r)?,
                addr: Addr::decode(r)?,
            },
            5 => Inst::Store {
                val: Val::decode(r)?,
                addr: Addr::decode(r)?,
            },
            6 => Inst::Call {
                dst: Option::decode(r)?,
                func: FuncId::decode(r)?,
                args: Vec::decode(r)?,
            },
            7 => Inst::Custom {
                id: r.get_u16()?,
                dsts: Vec::decode(r)?,
                args: Vec::decode(r)?,
            },
            8 => Inst::Emit {
                val: Val::decode(r)?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    what: "Inst",
                    tag: tag.into(),
                })
            }
        })
    }
}

impl Codec for Terminator {
    fn encode(&self, w: &mut Writer) {
        match self {
            Terminator::Jump(b) => {
                w.put_u8(0);
                b.encode(w);
            }
            Terminator::Branch { c, t, f } => {
                w.put_u8(1);
                c.encode(w);
                t.encode(w);
                f.encode(w);
            }
            Terminator::Ret(v) => {
                w.put_u8(2);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => Terminator::Jump(BlockId::decode(r)?),
            1 => Terminator::Branch {
                c: Val::decode(r)?,
                t: BlockId::decode(r)?,
                f: BlockId::decode(r)?,
            },
            2 => Terminator::Ret(Option::decode(r)?),
            tag => {
                return Err(CodecError::BadTag {
                    what: "Terminator",
                    tag: tag.into(),
                })
            }
        })
    }
}

impl Codec for Block {
    fn encode(&self, w: &mut Writer) {
        self.insts.encode(w);
        self.term.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Block {
            insts: Vec::decode(r)?,
            term: Terminator::decode(r)?,
        })
    }
}

impl Codec for LocalData {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_u32(self.words);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LocalData {
            name: r.get_str()?,
            words: r.get_u32()?,
        })
    }
}

impl Codec for Function {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_u32(self.num_params);
        w.put_bool(self.returns_value);
        self.blocks.encode(w);
        self.entry.encode(w);
        self.locals.encode(w);
        w.put_u32(self.num_vregs);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Function {
            name: r.get_str()?,
            num_params: r.get_u32()?,
            returns_value: r.get_bool()?,
            blocks: Vec::decode(r)?,
            entry: BlockId::decode(r)?,
            locals: Vec::decode(r)?,
            num_vregs: r.get_u32()?,
        })
    }
}

impl Codec for GlobalData {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_u32(self.words);
        self.init.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GlobalData {
            name: r.get_str()?,
            words: r.get_u32()?,
            init: Vec::decode(r)?,
        })
    }
}

impl Codec for Module {
    fn encode(&self, w: &mut Writer) {
        self.funcs.encode(w);
        self.globals.encode(w);
        self.custom_ops.encode(w);
    }

    /// Decoding verifies: the analyses, the passes and the interpreter
    /// index tables by register, block, global and function number, so a
    /// well-formed encoding of a module that [`verify`] rejects is a
    /// [`CodecError::Invalid`], never a value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let module = Module {
            funcs: Vec::decode(r)?,
            globals: Vec::decode(r)?,
            custom_ops: Vec::decode(r)?,
        };
        verify(&module).map_err(|e| CodecError::Invalid {
            what: "Module",
            reason: e.to_string(),
        })?;
        Ok(module)
    }
}

/// The optimization configuration, part of the Optimize stage's cache key.
/// `usize` limits encode as `u64`.
impl Codec for OptConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.inline);
        w.put_u64(self.inline_cfg.max_callee_insts as u64);
        w.put_u64(self.inline_cfg.max_caller_insts as u64);
        w.put_u32(self.inline_cfg.rounds);
        w.put_bool(self.if_convert);
        w.put_bool(self.licm);
        w.put_u32(self.unroll.factor);
        w.put_u64(self.unroll.max_loop_insts as u64);
        w.put_bool(self.unroll.innermost_only);
        w.put_bool(self.drop_dead_funcs);
        w.put_str(&self.entry);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OptConfig {
            inline: r.get_bool()?,
            inline_cfg: InlineConfig {
                max_callee_insts: r.get_u64()? as usize,
                max_caller_insts: r.get_u64()? as usize,
                rounds: r.get_u32()?,
            },
            if_convert: r.get_bool()?,
            licm: r.get_bool()?,
            unroll: UnrollConfig {
                factor: r.get_u32()?,
                max_loop_insts: r.get_u64()? as usize,
                innermost_only: r.get_bool()?,
            },
            drop_dead_funcs: r.get_bool()?,
            entry: r.get_str()?,
        })
    }
}

impl Codec for Profile {
    fn encode(&self, w: &mut Writer) {
        // Sorted by function id: equal profiles encode to identical bytes.
        let mut entries: Vec<(&u32, &Vec<u64>)> = self.counts.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        w.put_u32(entries.len() as u32);
        for (id, counts) in entries {
            w.put_u32(*id);
            counts.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let mut counts = HashMap::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()?;
            counts.insert(id, Vec::decode(r)?);
        }
        Ok(Profile { counts })
    }
}

/// Stable wire tags: 0 = `DivByZero`, 1 = `OutOfBounds`, 2 = `StepLimit`,
/// 3 = `StackOverflow`, 4 = `NoEntry`, 5 = `BadCustom`, 6 = `OutOfMemory`.
/// Never renumber.
impl Codec for crate::interp::InterpError {
    fn encode(&self, w: &mut Writer) {
        use crate::interp::InterpError::*;
        match self {
            DivByZero => w.put_u8(0),
            OutOfBounds(addr) => {
                w.put_u8(1);
                w.put_u64(*addr as u64);
            }
            StepLimit => w.put_u8(2),
            StackOverflow => w.put_u8(3),
            NoEntry(name) => {
                w.put_u8(4);
                w.put_str(name);
            }
            BadCustom(msg) => {
                w.put_u8(5);
                w.put_str(msg);
            }
            OutOfMemory => w.put_u8(6),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use crate::interp::InterpError::*;
        Ok(match r.get_u8()? {
            0 => DivByZero,
            1 => OutOfBounds(r.get_u64()? as i64),
            2 => StepLimit,
            3 => StackOverflow,
            4 => NoEntry(r.get_str()?),
            5 => BadCustom(r.get_str()?),
            6 => OutOfMemory,
            tag => {
                return Err(CodecError::BadTag {
                    what: "InterpError",
                    tag: tag.into(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encode_to_vec();
        assert_eq!(&T::decode_all(&bytes).expect("decode"), v);
    }

    #[test]
    fn whole_module_roundtrips() {
        // A hand-built module exercising every container: two functions,
        // a loop CFG, locals, an initialized global, and a custom op.
        let mut helper = Function::new("mac3", 3, true);
        let d = helper.new_vreg();
        helper.blocks[0] = Block {
            insts: vec![Inst::Custom {
                id: 0,
                dsts: vec![d],
                args: vec![Val::Reg(VReg(0)), Val::Reg(VReg(1)), Val::Reg(VReg(2))],
            }],
            term: Terminator::Ret(Some(Val::Reg(d))),
        };
        let mut main = Function::new("main", 1, false);
        main.locals.push(LocalData {
            name: "tmp".into(),
            words: 4,
        });
        let i = main.new_vreg();
        let acc = main.new_vreg();
        let body = main.new_block();
        let done = main.new_block();
        main.blocks[0] = Block {
            insts: vec![Inst::Un {
                op: Opcode::Mov,
                dst: i,
                a: Val::Imm(0),
            }],
            term: Terminator::Jump(BlockId(1)),
        };
        main.block_mut(body).insts = vec![
            Inst::Load {
                dst: acc,
                addr: Addr::global(GlobalId(0)),
            },
            Inst::Call {
                dst: Some(acc),
                func: FuncId(1),
                args: vec![Val::Reg(acc), Val::Reg(i), Val::Imm(3)],
            },
            Inst::Store {
                val: Val::Reg(acc),
                addr: Addr::local(LocalSlot(0)),
            },
            Inst::Emit { val: Val::Reg(acc) },
        ];
        main.block_mut(body).term = Terminator::Branch {
            c: Val::Reg(i),
            t: body,
            f: done,
        };
        let module = Module {
            funcs: vec![main, helper],
            globals: vec![GlobalData {
                name: "tbl".into(),
                words: 8,
                init: vec![1, -2, 3],
            }],
            custom_ops: vec![asip_isa::custom::mac_op()],
        };
        assert_eq!(crate::func::verify(&module), Ok(()));
        roundtrip(&module);
    }

    #[test]
    fn profile_encoding_is_order_independent() {
        let mut a = Profile::default();
        a.counts.insert(2, vec![7, 8]);
        a.counts.insert(0, vec![1]);
        a.counts.insert(9, vec![]);
        let mut b = Profile::default();
        // Same entries inserted in a different order.
        b.counts.insert(9, vec![]);
        b.counts.insert(0, vec![1]);
        b.counts.insert(2, vec![7, 8]);
        assert_eq!(a.encode_to_vec(), b.encode_to_vec());
        roundtrip(&a);
    }

    #[test]
    fn opt_configs_roundtrip() {
        for cfg in [OptConfig::default(), OptConfig::none()] {
            let bytes = cfg.encode_to_vec();
            let back = OptConfig::decode_all(&bytes).expect("decode");
            assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        }
        assert_ne!(
            OptConfig::default().encode_to_vec(),
            OptConfig::none().encode_to_vec()
        );
    }

    #[test]
    fn every_inst_variant_roundtrips() {
        let insts = vec![
            Inst::Bin {
                op: Opcode::Mul,
                dst: VReg(3),
                a: Val::Reg(VReg(1)),
                b: Val::Imm(-7),
            },
            Inst::Un {
                op: Opcode::Sxtb,
                dst: VReg(0),
                a: Val::Imm(511),
            },
            Inst::Select {
                dst: VReg(4),
                c: Val::Reg(VReg(1)),
                a: Val::Imm(1),
                b: Val::Imm(0),
            },
            Inst::Lea {
                dst: VReg(5),
                addr: Addr::local(LocalSlot(2)),
            },
            Inst::Load {
                dst: VReg(6),
                addr: Addr {
                    base: AddrBase::Reg(VReg(5)),
                    off: -4,
                },
            },
            Inst::Store {
                val: Val::Reg(VReg(6)),
                addr: Addr::global(GlobalId(1)),
            },
            Inst::Call {
                dst: Some(VReg(7)),
                func: FuncId(2),
                args: vec![Val::Imm(1), Val::Reg(VReg(0))],
            },
            Inst::Custom {
                id: 3,
                dsts: vec![VReg(8), VReg(9)],
                args: vec![Val::Imm(2)],
            },
            Inst::Emit { val: Val::Imm(42) },
        ];
        roundtrip(&insts);
        let terms = vec![
            Terminator::Jump(BlockId(4)),
            Terminator::Branch {
                c: Val::Reg(VReg(1)),
                t: BlockId(1),
                f: BlockId(2),
            },
            Terminator::Ret(None),
            Terminator::Ret(Some(Val::Imm(-1))),
        ];
        roundtrip(&terms);
    }

    #[test]
    fn a_module_that_fails_verify_does_not_decode() {
        let mut f = Function::new("main", 0, false);
        f.blocks[0].insts.push(Inst::Emit {
            val: Val::Reg(VReg(0)), // num_vregs is 0
        });
        let m = Module {
            funcs: vec![f],
            ..Module::default()
        };
        assert!(matches!(
            Module::decode_all(&m.encode_to_vec()),
            Err(CodecError::Invalid { what: "Module", .. })
        ));
    }

    #[test]
    fn bad_inst_tag_is_an_error() {
        assert!(matches!(
            Inst::decode_all(&[99]),
            Err(CodecError::BadTag { what: "Inst", .. })
        ));
    }
}
