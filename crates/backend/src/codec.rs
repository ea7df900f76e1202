//! [`Codec`] implementations for the Compile-stage artifacts the persistent
//! artifact cache stores: [`CompiledProgram`] (VLIW) and
//! [`CompiledScalarProgram`] (scalar), each a linked executable plus its
//! [`BackendStats`]. [`BackendOptions`] is encoded too, for the Compile
//! stage's cache key.
//!
//! The program payloads reuse the [`asip_isa::codec`] container codecs;
//! statistics encode `usize` fields as `u64` and `occupancy` as exact
//! IEEE-754 bits, so warm-started experiment tables are byte-identical to
//! cold ones.

use crate::scalar::CompiledScalarProgram;
use crate::trace::TraceConfig;
use crate::{BackendOptions, BackendStats, CompiledProgram};
use asip_isa::codec::{Codec, CodecError, Reader, Writer};
use asip_isa::{ScalarProgram, VliwProgram};

impl Codec for BackendStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.bundles as u64);
        w.put_u64(self.ops as u64);
        w.put_f64(self.occupancy);
        w.put_u32(self.spill_slots);
        w.put_u64(self.traces_formed as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BackendStats {
            bundles: r.get_u64()? as usize,
            ops: r.get_u64()? as usize,
            occupancy: r.get_f64()?,
            spill_slots: r.get_u32()?,
            traces_formed: r.get_u64()? as usize,
        })
    }
}

/// The backend configuration, part of the Compile stage's cache key.
/// `usize` limits encode as `u64` and `min_ratio` as its exact IEEE-754
/// bits.
impl Codec for BackendOptions {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.superblocks);
        w.put_u64(self.trace.max_trace_blocks as u64);
        w.put_u64(self.trace.max_dup_ops as u64);
        w.put_f64(self.trace.min_ratio);
        w.put_u32(self.max_spill_rounds);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BackendOptions {
            superblocks: r.get_bool()?,
            trace: TraceConfig {
                max_trace_blocks: r.get_u64()? as usize,
                max_dup_ops: r.get_u64()? as usize,
                min_ratio: r.get_f64()?,
            },
            max_spill_rounds: r.get_u32()?,
        })
    }
}

impl Codec for CompiledProgram {
    fn encode(&self, w: &mut Writer) {
        self.program.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CompiledProgram {
            program: VliwProgram::decode(r)?,
            stats: BackendStats::decode(r)?,
        })
    }
}

impl Codec for CompiledScalarProgram {
    fn encode(&self, w: &mut Writer) {
        self.program.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CompiledScalarProgram {
            program: ScalarProgram::decode(r)?,
            stats: BackendStats::decode(r)?,
        })
    }
}

/// Stable wire tags: 0 = `NoEntry`, 1 = `CallsEntry`, 2 = `MissingUnit`.
/// Never renumber.
impl Codec for crate::lir::LowerToLirError {
    fn encode(&self, w: &mut Writer) {
        use crate::lir::LowerToLirError::*;
        match self {
            NoEntry(name) => {
                w.put_u8(0);
                w.put_str(name);
            }
            CallsEntry { caller } => {
                w.put_u8(1);
                w.put_str(caller);
            }
            MissingUnit(what) => {
                w.put_u8(2);
                w.put_str(what);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use crate::lir::LowerToLirError::*;
        Ok(match r.get_u8()? {
            0 => NoEntry(r.get_str()?),
            1 => CallsEntry {
                caller: r.get_str()?,
            },
            2 => MissingUnit(r.get_str()?),
            tag => {
                return Err(CodecError::BadTag {
                    what: "LowerToLirError",
                    tag: tag.into(),
                })
            }
        })
    }
}

impl Codec for crate::sched::ScheduleError {
    fn encode(&self, w: &mut Writer) {
        let crate::sched::ScheduleError::NoSlotFor { opcode, cluster } = self;
        w.put_str(opcode);
        w.put_u8(*cluster);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::sched::ScheduleError::NoSlotFor {
            opcode: r.get_str()?,
            cluster: r.get_u8()?,
        })
    }
}

impl Codec for crate::regalloc::AllocError {
    fn encode(&self, w: &mut Writer) {
        let crate::regalloc::AllocError::TooFewRegisters { cluster, available } = self;
        w.put_u8(*cluster);
        w.put_u64(*available as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::regalloc::AllocError::TooFewRegisters {
            cluster: r.get_u8()?,
            available: r.get_u64()? as usize,
        })
    }
}

/// Stable wire tags: 0 = `Lower`, 1 = `Schedule`, 2 = `Alloc`,
/// 3 = `SpillDivergence`. Never renumber.
impl Codec for crate::BackendError {
    fn encode(&self, w: &mut Writer) {
        use crate::BackendError::*;
        match self {
            Lower(e) => {
                w.put_u8(0);
                e.encode(w);
            }
            Schedule(e) => {
                w.put_u8(1);
                e.encode(w);
            }
            Alloc(e) => {
                w.put_u8(2);
                e.encode(w);
            }
            SpillDivergence { func } => {
                w.put_u8(3);
                w.put_str(func);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use crate::BackendError::*;
        Ok(match r.get_u8()? {
            0 => Lower(Codec::decode(r)?),
            1 => Schedule(Codec::decode(r)?),
            2 => Alloc(Codec::decode(r)?),
            3 => SpillDivergence { func: r.get_str()? },
            tag => {
                return Err(CodecError::BadTag {
                    what: "BackendError",
                    tag: tag.into(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_module, compile_module_scalar, BackendOptions};
    use asip_isa::MachineDescription;

    #[test]
    fn compiled_programs_roundtrip() {
        let module = asip_tinyc::compile(
            "int buf[16];\n\
             void main(int n) {\n\
               int i;\n\
               for (i = 0; i < n; i = i + 1) { buf[i] = buf[i] * 3 + i; }\n\
               emit(buf[0]);\n\
             }",
        )
        .unwrap();
        let opts = BackendOptions::default();

        let vliw = compile_module(&module, &MachineDescription::ember4(), None, &opts).unwrap();
        let bytes = vliw.encode_to_vec();
        assert_eq!(CompiledProgram::decode_all(&bytes).unwrap(), vliw);

        let scalar =
            compile_module_scalar(&module, &MachineDescription::scalar2(), None, &opts).unwrap();
        let bytes = scalar.encode_to_vec();
        assert_eq!(CompiledScalarProgram::decode_all(&bytes).unwrap(), scalar);
    }

    #[test]
    fn stats_preserve_exact_floats() {
        let s = BackendStats {
            bundles: 3,
            ops: 7,
            occupancy: 7.0 / 3.0,
            spill_slots: 2,
            traces_formed: 1,
        };
        let back = BackendStats::decode_all(&s.encode_to_vec()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.occupancy.to_bits(), s.occupancy.to_bits());
    }

    #[test]
    fn backend_options_roundtrip_with_exact_ratio() {
        let mut opts = BackendOptions::default();
        opts.trace.min_ratio = 1.0 / 3.0;
        let back = BackendOptions::decode_all(&opts.encode_to_vec()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{opts:?}"));
        assert_eq!(
            back.trace.min_ratio.to_bits(),
            opts.trace.min_ratio.to_bits()
        );
    }
}
