//! Hand-rolled binary codec for cacheable toolchain artifacts.
//!
//! The persistent artifact cache (`asip_core::cache`) needs to serialize
//! every cached artifact kind — IR modules, profiles, VLIW and scalar
//! programs — and the build environment has no registry access, so there is
//! no `serde`. This module is the self-contained replacement: a tiny
//! little-endian [`Writer`]/[`Reader`] pair, a [`Codec`] trait, and
//! mechanical implementations for every ISA container type. The IR and
//! backend crates implement [`Codec`] for their own types on top of these
//! primitives. It is the one byte format for machine code
//! ([`opcode_tag`] numbers the opcodes), and [`fnv1a`] is the checksum
//! that disk cache entries and wire frames end with.
//!
//! # Format discipline
//!
//! * Fixed-width little-endian integers; `f64` as IEEE-754 bits (exact).
//! * Collections as a `u32` count followed by the elements.
//! * Enums as a `u8` tag followed by the variant payload. Tags are part of
//!   the on-disk format: **never renumber an existing tag** — add new ones
//!   and bump `asip_core::cache::FORMAT_VERSION` instead.
//! * Decoding is total: any malformed input yields a [`CodecError`], never
//!   a panic, so a corrupt cache entry degrades to a recompute.
//! * `decode(encode(x)) == x` for every implementation — pinned by the
//!   workspace round-trip property tests.

use crate::code::{Bundle, FuncSym, GlobalSym, MachineOp, VliwProgram};
use crate::custom::{CustomOpDef, PatNode, PatRef};
use crate::hwmodel::ActivityCounts;
use crate::machine::{Encoding, ICacheConfig, MachineDescription, Slot, TargetKind};
use crate::op::{FuKind, Opcode};
use crate::reg::{Operand, Reg};
use crate::scalar::ScalarProgram;
use std::fmt;

/// Decoding failure. Encoding is infallible; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum tag byte had no matching variant.
    BadTag {
        /// Type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u32,
    },
    /// A collection length exceeds the remaining input (corrupt count).
    BadLen {
        /// The declared element count.
        len: u32,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A string payload was not valid UTF-8.
    Utf8,
    /// Input continued past the end of the decoded value.
    Trailing {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// The bytes decoded to a value that breaks an invariant its users
    /// index by (a register or block number out of range, say).
    Invalid {
        /// Type being decoded.
        what: &'static str,
        /// The broken invariant.
        reason: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input truncated"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CodecError::BadLen { len, remaining } => {
                write!(f, "length {len} exceeds {remaining} remaining bytes")
            }
            CodecError::Utf8 => f.write_str("invalid UTF-8 in string"),
            CodecError::Trailing { extra } => write!(f, "{extra} trailing bytes"),
            CodecError::Invalid { what, reason } => write!(f, "invalid {what}: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Write raw bytes with no length prefix, e.g. a complete [`Codec`]
    /// encoding, which delimits itself: `put_raw(&v.encode_to_vec())`
    /// writes what `v.encode(w)` writes.
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Write a `u32` count, then each word as [`Writer::put_i32`] would:
    /// the bytes `vs.to_vec().encode(w)` writes, in one call.
    pub fn put_i32s(&mut self, vs: &[i32]) {
        self.put_u32(vs.len() as u32);
        let start = self.buf.len();
        self.buf.resize(start + 4 * vs.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Cursor over encoded bytes; every getter checks bounds.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`CodecError::Trailing`] unless the input is exhausted.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `bool` (any nonzero byte is `true`).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a collection count, rejecting counts that cannot possibly fit
    /// in the remaining input (each element occupies at least one byte).
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u32()?;
        if len as usize > self.remaining() {
            return Err(CodecError::BadLen {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Utf8)
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read exactly `n` raw bytes (no length prefix) — for fixed-size
    /// fields like magic numbers.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Read what [`Writer::put_i32s`] writes: a `u32` count, then that
    /// many words. A count the remaining input cannot hold is
    /// [`CodecError::BadLen`], raised before anything is allocated.
    pub fn get_i32s(&mut self) -> Result<Vec<i32>, CodecError> {
        let len = self.get_u32()?;
        if len as usize > self.remaining() / 4 {
            return Err(CodecError::BadLen {
                len,
                remaining: self.remaining(),
            });
        }
        let mut out = vec![0; len as usize];
        self.read_i32s(&mut out)?;
        Ok(out)
    }

    /// Fill `out` with the next `out.len()` little-endian `i32` words (no
    /// count).
    pub fn read_i32s(&mut self, out: &mut [i32]) -> Result<(), CodecError> {
        let bytes = self.take(4 * out.len())?;
        for (v, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = i32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        }
        Ok(())
    }
}

/// The 64-bit FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a state `h`. The hash of `a` is
/// `fnv1a(FNV1A_BASIS, a)`, and `fnv1a(fnv1a(FNV1A_BASIS, a), b)` is the
/// hash of `a` followed by `b`. Disk cache entries and wire frames end
/// with this checksum.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Binary encode/decode for one artifact (or artifact component) type.
///
/// `decode(encode(x)) == x` is the contract; the workspace round-trip
/// property tests pin it for every implementation.
pub trait Codec: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decode one value from `r`, leaving the cursor after it.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encode to a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode a value that must consume `bytes` exactly.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`], including [`CodecError::Trailing`] when input
    /// remains after the value.
    fn decode_all(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! impl_codec_prim {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Codec for $t {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    )*};
}

impl_codec_prim!(
    u8 => put_u8 / get_u8,
    u16 => put_u16 / get_u16,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    i32 => put_i32 / get_i32,
    f64 => put_f64 / get_f64,
    bool => put_bool / get_bool,
);

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag: tag.into(),
            }),
        }
    }
}

/// Field-by-field encoding of the simulator's dynamic activity counters
/// (consumed by the memoized Simulate stage's `SimResult` codec).
impl Codec for ActivityCounts {
    fn encode(&self, w: &mut Writer) {
        for v in [
            self.alu_ops,
            self.mul_ops,
            self.div_ops,
            self.mem_ops,
            self.branch_ops,
            self.copy_ops,
            self.custom_ops,
            self.custom_area_executed,
            self.bundles,
            self.fetch_bytes,
            self.idle_slots,
            self.cycles,
        ] {
            w.put_u64(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ActivityCounts {
            alu_ops: r.get_u64()?,
            mul_ops: r.get_u64()?,
            div_ops: r.get_u64()?,
            mem_ops: r.get_u64()?,
            branch_ops: r.get_u64()?,
            copy_ops: r.get_u64()?,
            custom_ops: r.get_u64()?,
            custom_area_executed: r.get_u64()?,
            bundles: r.get_u64()?,
            fetch_bytes: r.get_u64()?,
            idle_slots: r.get_u64()?,
            cycles: r.get_u64()?,
        })
    }
}

/// Stable tag of an opcode, 0–42: its first byte in every encoding of
/// machine code. Custom ops carry their id as a payload after it.
pub fn opcode_tag(op: Opcode) -> u8 {
    use Opcode::*;
    match op {
        Add => 0,
        Sub => 1,
        And => 2,
        Or => 3,
        Xor => 4,
        Shl => 5,
        Shr => 6,
        Sra => 7,
        Min => 8,
        Max => 9,
        Abs => 10,
        Sxtb => 11,
        Sxth => 12,
        CmpEq => 13,
        CmpNe => 14,
        CmpLt => 15,
        CmpLe => 16,
        CmpGt => 17,
        CmpGe => 18,
        CmpLtu => 19,
        CmpGeu => 20,
        Select => 21,
        Mov => 22,
        Mul => 23,
        MulH => 24,
        Div => 25,
        Rem => 26,
        Ldw => 27,
        Stw => 28,
        Br => 29,
        BrT => 30,
        BrF => 31,
        Call => 32,
        Ret => 33,
        Halt => 34,
        MovFromSp => 35,
        AddSp => 36,
        MovFromLr => 37,
        MovToLr => 38,
        Emit => 39,
        CopyX => 40,
        Nop => 41,
        Custom(_) => 42,
    }
}

impl Codec for Opcode {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(opcode_tag(*self));
        if let Opcode::Custom(id) = self {
            w.put_u16(*id);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use Opcode::*;
        Ok(match r.get_u8()? {
            0 => Add,
            1 => Sub,
            2 => And,
            3 => Or,
            4 => Xor,
            5 => Shl,
            6 => Shr,
            7 => Sra,
            8 => Min,
            9 => Max,
            10 => Abs,
            11 => Sxtb,
            12 => Sxth,
            13 => CmpEq,
            14 => CmpNe,
            15 => CmpLt,
            16 => CmpLe,
            17 => CmpGt,
            18 => CmpGe,
            19 => CmpLtu,
            20 => CmpGeu,
            21 => Select,
            22 => Mov,
            23 => Mul,
            24 => MulH,
            25 => Div,
            26 => Rem,
            27 => Ldw,
            28 => Stw,
            29 => Br,
            30 => BrT,
            31 => BrF,
            32 => Call,
            33 => Ret,
            34 => Halt,
            35 => MovFromSp,
            36 => AddSp,
            37 => MovFromLr,
            38 => MovToLr,
            39 => Emit,
            40 => CopyX,
            41 => Nop,
            42 => Custom(r.get_u16()?),
            tag => {
                return Err(CodecError::BadTag {
                    what: "Opcode",
                    tag: tag.into(),
                })
            }
        })
    }
}

impl Codec for Reg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.cluster);
        w.put_u16(self.index);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Reg {
            cluster: r.get_u8()?,
            index: r.get_u16()?,
        })
    }
}

impl Codec for Operand {
    fn encode(&self, w: &mut Writer) {
        match self {
            Operand::Reg(reg) => {
                w.put_u8(0);
                reg.encode(w);
            }
            Operand::Imm(v) => {
                w.put_u8(1);
                w.put_i32(*v);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Operand::Reg(Reg::decode(r)?)),
            1 => Ok(Operand::Imm(r.get_i32()?)),
            tag => Err(CodecError::BadTag {
                what: "Operand",
                tag: tag.into(),
            }),
        }
    }
}

impl Codec for MachineOp {
    fn encode(&self, w: &mut Writer) {
        self.opcode.encode(w);
        self.dsts.encode(w);
        self.srcs.encode(w);
        w.put_i32(self.imm);
        w.put_u32(self.target);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MachineOp {
            opcode: Opcode::decode(r)?,
            dsts: Vec::decode(r)?,
            srcs: Vec::decode(r)?,
            imm: r.get_i32()?,
            target: r.get_u32()?,
        })
    }
}

impl Codec for Bundle {
    fn encode(&self, w: &mut Writer) {
        self.slots.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Bundle {
            slots: Vec::decode(r)?,
        })
    }
}

impl Codec for FuncSym {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_u32(self.entry);
        w.put_u32(self.frame_words);
        w.put_u32(self.num_args);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(FuncSym {
            name: r.get_str()?,
            entry: r.get_u32()?,
            frame_words: r.get_u32()?,
            num_args: r.get_u32()?,
        })
    }
}

impl Codec for GlobalSym {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_u32(self.addr);
        w.put_u32(self.words);
        self.init.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GlobalSym {
            name: r.get_str()?,
            addr: r.get_u32()?,
            words: r.get_u32()?,
            init: Vec::decode(r)?,
        })
    }
}

impl Codec for PatRef {
    fn encode(&self, w: &mut Writer) {
        match self {
            PatRef::Input(i) => {
                w.put_u8(0);
                w.put_u8(*i);
            }
            PatRef::Node(n) => {
                w.put_u8(1);
                w.put_u16(*n);
            }
            PatRef::Const(c) => {
                w.put_u8(2);
                w.put_i32(*c);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(PatRef::Input(r.get_u8()?)),
            1 => Ok(PatRef::Node(r.get_u16()?)),
            2 => Ok(PatRef::Const(r.get_i32()?)),
            tag => Err(CodecError::BadTag {
                what: "PatRef",
                tag: tag.into(),
            }),
        }
    }
}

impl Codec for PatNode {
    fn encode(&self, w: &mut Writer) {
        self.op.encode(w);
        self.a.encode(w);
        self.b.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PatNode {
            op: Opcode::decode(r)?,
            a: PatRef::decode(r)?,
            b: PatRef::decode(r)?,
        })
    }
}

impl Codec for CustomOpDef {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_u8(self.num_inputs);
        self.nodes.encode(w);
        self.outputs.encode(w);
        w.put_u32(self.latency);
        w.put_f64(self.area);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CustomOpDef {
            name: r.get_str()?,
            num_inputs: r.get_u8()?,
            nodes: Vec::decode(r)?,
            outputs: Vec::decode(r)?,
            latency: r.get_u32()?,
            area: r.get_f64()?,
        })
    }
}

impl Codec for FuKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            FuKind::Alu => 0,
            FuKind::Mul => 1,
            FuKind::Mem => 2,
            FuKind::Branch => 3,
            FuKind::Custom => 4,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => FuKind::Alu,
            1 => FuKind::Mul,
            2 => FuKind::Mem,
            3 => FuKind::Branch,
            4 => FuKind::Custom,
            tag => {
                return Err(CodecError::BadTag {
                    what: "FuKind",
                    tag: tag.into(),
                })
            }
        })
    }
}

impl Codec for TargetKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            TargetKind::Vliw => 0,
            TargetKind::Scalar => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => TargetKind::Vliw,
            1 => TargetKind::Scalar,
            tag => {
                return Err(CodecError::BadTag {
                    what: "TargetKind",
                    tag: tag.into(),
                })
            }
        })
    }
}

impl Codec for Encoding {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Encoding::Uncompressed => 0,
            Encoding::StopBit => 1,
            Encoding::Compact16 => 2,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => Encoding::Uncompressed,
            1 => Encoding::StopBit,
            2 => Encoding::Compact16,
            tag => {
                return Err(CodecError::BadTag {
                    what: "Encoding",
                    tag: tag.into(),
                })
            }
        })
    }
}

/// Slots travel as their functional-unit kind list; decoding rebuilds the
/// slot through [`Slot::new`], whose sort + dedup is idempotent on the
/// already-canonical encoded list, so round-trips are exact.
impl Codec for Slot {
    fn encode(&self, w: &mut Writer) {
        self.kinds().to_vec().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kinds: Vec<FuKind> = Vec::decode(r)?;
        Ok(Slot::new(&kinds))
    }
}

impl Codec for ICacheConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.size_bytes);
        w.put_u32(self.line_bytes);
        w.put_u32(self.ways);
        w.put_u32(self.miss_penalty);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ICacheConfig {
            size_bytes: r.get_u32()?,
            line_bytes: r.get_u32()?,
            ways: r.get_u32()?,
            miss_penalty: r.get_u32()?,
        })
    }
}

/// The complete machine table, custom operations included — unlike the
/// description DSL ([`crate::desc::print_machine`]), which deliberately
/// omits selected custom ops, this encoding is lossless: it is what lets
/// an evaluation request (and an ISE-extended machine inside an outcome)
/// cross a process boundary byte-exactly.
impl Codec for MachineDescription {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        self.target.encode(w);
        w.put_u8(self.clusters);
        w.put_u16(self.regs_per_cluster);
        self.slots.encode(w);
        w.put_u32(self.lat_mul);
        w.put_u32(self.lat_div);
        w.put_u32(self.lat_mem);
        w.put_u32(self.branch_penalty);
        w.put_bool(self.forwarding);
        w.put_u32(self.copy_latency);
        self.encoding.encode(w);
        self.icache.encode(w);
        w.put_bool(self.gate_idle_slots);
        self.custom_ops.encode(w);
        w.put_bool(self.compat_control);
        w.put_u32(self.dmem_words);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MachineDescription {
            name: r.get_str()?,
            target: TargetKind::decode(r)?,
            clusters: r.get_u8()?,
            regs_per_cluster: r.get_u16()?,
            slots: Vec::decode(r)?,
            lat_mul: r.get_u32()?,
            lat_div: r.get_u32()?,
            lat_mem: r.get_u32()?,
            branch_penalty: r.get_u32()?,
            forwarding: r.get_bool()?,
            copy_latency: r.get_u32()?,
            encoding: Encoding::decode(r)?,
            icache: Option::decode(r)?,
            gate_idle_slots: r.get_bool()?,
            custom_ops: Vec::decode(r)?,
            compat_control: r.get_bool()?,
            dmem_words: r.get_u32()?,
        })
    }
}

impl Codec for VliwProgram {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.machine);
        self.bundles.encode(w);
        self.functions.encode(w);
        self.globals.encode(w);
        self.custom_ops.encode(w);
        w.put_u32(self.entry_func);
        w.put_u32(self.data_words);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VliwProgram {
            machine: r.get_str()?,
            bundles: Vec::decode(r)?,
            functions: Vec::decode(r)?,
            globals: Vec::decode(r)?,
            custom_ops: Vec::decode(r)?,
            entry_func: r.get_u32()?,
            data_words: r.get_u32()?,
        })
    }
}

impl Codec for ScalarProgram {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.machine);
        self.insts.encode(w);
        self.functions.encode(w);
        self.globals.encode(w);
        self.custom_ops.encode(w);
        w.put_u32(self.entry_func);
        w.put_u32(self.data_words);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ScalarProgram {
            machine: r.get_str()?,
            insts: Vec::decode(r)?,
            functions: Vec::decode(r)?,
            globals: Vec::decode(r)?,
            custom_ops: Vec::decode(r)?,
            entry_func: r.get_u32()?,
            data_words: r.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::{mac_op, sat_add16};

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encode_to_vec();
        let back = T::decode_all(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u16::MAX);
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&i32::MIN);
        roundtrip(&(-0.0f64));
        roundtrip(&f64::MAX);
        roundtrip(&true);
        roundtrip(&String::from("héllo"));
        roundtrip(&vec![1i32, -2, 3]);
        roundtrip(&Some(vec![String::from("x")]));
        roundtrip(&Option::<u32>::None);
    }

    #[test]
    fn i32_runs_are_the_vec_encoding() {
        for v in [vec![], vec![7], vec![1, -2, i32::MIN, i32::MAX, 0]] {
            let mut w = Writer::new();
            w.put_i32s(&v);
            let bytes = w.into_bytes();
            assert_eq!(bytes, v.encode_to_vec());
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_i32s(), Ok(v.clone()));
            r.finish().unwrap();
            let mut words = vec![0; v.len()];
            let mut r = Reader::new(&bytes[4..]);
            r.read_i32s(&mut words).unwrap();
            assert_eq!(words, v);
        }
        // A word count the input cannot hold, though it fits in bytes.
        let mut w = Writer::new();
        w.put_u32(3);
        w.put_raw(&[0; 11]);
        assert_eq!(
            Reader::new(&w.into_bytes()).get_i32s(),
            Err(CodecError::BadLen {
                len: 3,
                remaining: 11
            })
        );
        let mut words = [0; 3];
        assert_eq!(
            Reader::new(&[0; 11]).read_i32s(&mut words),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn every_opcode_roundtrips() {
        for tag in 0..=42u8 {
            let mut w = Writer::new();
            w.put_u8(tag);
            if tag == 42 {
                w.put_u16(7);
            }
            let bytes = w.into_bytes();
            let op = Opcode::decode_all(&bytes).expect("valid tag");
            assert_eq!(op.encode_to_vec(), bytes, "{op} must re-encode identically");
        }
        assert!(matches!(
            Opcode::decode_all(&[43]),
            Err(CodecError::BadTag { what: "Opcode", .. })
        ));
    }

    #[test]
    fn machine_op_and_bundle_roundtrip() {
        let op = MachineOp {
            opcode: Opcode::Ldw,
            dsts: vec![Reg::new(1, 7)],
            srcs: vec![Operand::Reg(Reg::ZERO), Operand::Imm(-3)],
            imm: 42,
            target: 9,
        };
        roundtrip(&op);
        roundtrip(&Bundle {
            slots: vec![None, Some(op), None],
        });
    }

    #[test]
    fn custom_op_defs_roundtrip() {
        roundtrip(&mac_op());
        roundtrip(&sat_add16());
    }

    #[test]
    fn programs_roundtrip() {
        let p = VliwProgram {
            machine: "demo".into(),
            bundles: vec![Bundle::empty(2)],
            functions: vec![FuncSym {
                name: "main".into(),
                entry: 0,
                frame_words: 4,
                num_args: 1,
            }],
            globals: vec![GlobalSym {
                name: "g".into(),
                addr: 16,
                words: 3,
                init: vec![1, 2],
            }],
            custom_ops: vec![mac_op()],
            entry_func: 0,
            data_words: 19,
        };
        roundtrip(&p);
        let s = ScalarProgram {
            machine: "demo".into(),
            insts: vec![MachineOp::nop()],
            functions: p.functions.clone(),
            globals: p.globals.clone(),
            custom_ops: vec![sat_add16()],
            entry_func: 0,
            data_words: 19,
        };
        roundtrip(&s);
    }

    #[test]
    fn machine_descriptions_roundtrip_custom_ops_included() {
        for mut m in MachineDescription::all_presets() {
            roundtrip(&m);
            // Unlike the DSL, selected custom ops survive the encoding.
            m.custom_ops.push(mac_op());
            roundtrip(&m);
        }
        assert!(MachineDescription::decode_all(&[0xff; 3]).is_err());
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        assert_eq!(u32::decode_all(&[1, 2]), Err(CodecError::Truncated));
        assert_eq!(
            u8::decode_all(&[1, 2]),
            Err(CodecError::Trailing { extra: 1 })
        );
        // A huge collection count cannot allocate: rejected up front.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        assert!(matches!(
            Vec::<u64>::decode_all(&w.into_bytes()),
            Err(CodecError::BadLen { .. })
        ));
        // Invalid UTF-8.
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        assert_eq!(String::decode_all(&w.into_bytes()), Err(CodecError::Utf8));
    }
}
