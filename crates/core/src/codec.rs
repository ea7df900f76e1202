//! [`Codec`] implementations for the session-level request/response types:
//! [`EvalRequest`], [`EvalOutcome`] (with its full [`ToolchainError`]
//! payloads) and the [`CacheStats`] family.
//!
//! These are the currency of the evaluation service (`asip_serve`): a
//! request travels to a worker process as bytes, the outcome travels back,
//! and a decoded outcome must compare equal to the locally computed one —
//! the shard executor's byte-identity guarantee rests on every impl here
//! being a lossless roundtrip. Conventions follow [`asip_isa::codec`]:
//! little-endian scalars, u32-prefixed collections, u8 enum tags that are
//! **never renumbered**, `f64` as exact IEEE-754 bits.

use crate::cache::{CacheStats, StageStats, TierStats};
use crate::ise::{IseReport, SelectedOp};
use crate::pipeline::{ToolchainError, WorkloadRun};
use crate::session::{EvalOutcome, EvalRequest, EvalRun};
use asip_isa::codec::{Codec, CodecError, Reader, Writer};

impl Codec for EvalRequest {
    fn encode(&self, w: &mut Writer) {
        self.workload.encode(w);
        self.machine.encode(w);
        w.put_f64(self.ise_budget);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EvalRequest {
            workload: Codec::decode(r)?,
            machine: Codec::decode(r)?,
            ise_budget: r.get_f64()?,
        })
    }
}

/// Stable wire tags: 0 = `Frontend`, 1 = `Backend`, 2 = `Sim`,
/// 3 = `Profile`, 4 = `WrongOutput`, 5 = `InvalidMachine`. Never
/// renumber.
impl Codec for ToolchainError {
    fn encode(&self, w: &mut Writer) {
        match self {
            ToolchainError::Frontend(e) => {
                w.put_u8(0);
                e.encode(w);
            }
            ToolchainError::Backend(e) => {
                w.put_u8(1);
                e.encode(w);
            }
            ToolchainError::Sim(e) => {
                w.put_u8(2);
                e.encode(w);
            }
            ToolchainError::Profile(e) => {
                w.put_u8(3);
                e.encode(w);
            }
            ToolchainError::WrongOutput {
                workload,
                machine,
                expected,
                actual,
            } => {
                w.put_u8(4);
                w.put_str(workload);
                w.put_str(machine);
                expected.encode(w);
                actual.encode(w);
            }
            ToolchainError::InvalidMachine(e) => {
                w.put_u8(5);
                w.put_str(e);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => ToolchainError::Frontend(Codec::decode(r)?),
            1 => ToolchainError::Backend(Codec::decode(r)?),
            2 => ToolchainError::Sim(Codec::decode(r)?),
            3 => ToolchainError::Profile(Codec::decode(r)?),
            4 => ToolchainError::WrongOutput {
                workload: r.get_str()?,
                machine: r.get_str()?,
                expected: Vec::decode(r)?,
                actual: Vec::decode(r)?,
            },
            5 => ToolchainError::InvalidMachine(r.get_str()?),
            tag => {
                return Err(CodecError::BadTag {
                    what: "ToolchainError",
                    tag: tag.into(),
                })
            }
        })
    }
}

impl Codec for WorkloadRun {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.workload);
        w.put_str(&self.machine);
        self.sim.encode(w);
        self.compile.encode(w);
        w.put_u32(self.code_bytes);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WorkloadRun {
            workload: r.get_str()?,
            machine: r.get_str()?,
            sim: Codec::decode(r)?,
            compile: Codec::decode(r)?,
            code_bytes: r.get_u32()?,
        })
    }
}

impl Codec for SelectedOp {
    fn encode(&self, w: &mut Writer) {
        self.def.encode(w);
        w.put_f64(self.est_saved_cycles);
        w.put_u64(self.instances as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SelectedOp {
            def: Codec::decode(r)?,
            est_saved_cycles: r.get_f64()?,
            instances: r.get_u64()? as usize,
        })
    }
}

impl Codec for IseReport {
    fn encode(&self, w: &mut Writer) {
        self.selected.encode(w);
        w.put_u64(self.candidates_considered as u64);
        w.put_f64(self.area_used);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(IseReport {
            selected: Vec::decode(r)?,
            candidates_considered: r.get_u64()? as usize,
            area_used: r.get_f64()?,
        })
    }
}

impl Codec for EvalRun {
    fn encode(&self, w: &mut Writer) {
        self.run.encode(w);
        self.machine.encode(w);
        self.ise.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EvalRun {
            run: Codec::decode(r)?,
            machine: Codec::decode(r)?,
            ise: Option::decode(r)?,
        })
    }
}

/// The `result` field uses tag 0 = `Ok`, 1 = `Err`. Never renumber.
impl Codec for EvalOutcome {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.workload);
        w.put_str(&self.machine);
        match &self.result {
            Ok(run) => {
                w.put_u8(0);
                run.encode(w);
            }
            Err(e) => {
                w.put_u8(1);
                e.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let workload = r.get_str()?;
        let machine = r.get_str()?;
        let result = match r.get_u8()? {
            0 => Ok(EvalRun::decode(r)?),
            1 => Err(ToolchainError::decode(r)?),
            tag => {
                return Err(CodecError::BadTag {
                    what: "EvalOutcome",
                    tag: tag.into(),
                })
            }
        };
        Ok(EvalOutcome {
            workload,
            machine,
            result,
        })
    }
}

impl Codec for StageStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.hits);
        w.put_u64(self.misses);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(StageStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
        })
    }
}

impl Codec for TierStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.hits);
        w.put_u64(self.loads);
        w.put_u64(self.stores);
        w.put_u64(self.stale_drops);
        w.put_u64(self.evictions);
        w.put_u64(self.tmp_reclaimed);
        w.put_u64(self.resident_bytes);
        w.put_u64(self.entries);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TierStats {
            hits: r.get_u64()?,
            loads: r.get_u64()?,
            stores: r.get_u64()?,
            stale_drops: r.get_u64()?,
            evictions: r.get_u64()?,
            tmp_reclaimed: r.get_u64()?,
            resident_bytes: r.get_u64()?,
            entries: r.get_u64()?,
        })
    }
}

impl Codec for CacheStats {
    fn encode(&self, w: &mut Writer) {
        self.parse.encode(w);
        self.optimize.encode(w);
        self.profile.encode(w);
        self.compile.encode(w);
        self.simulate.encode(w);
        w.put_u64(self.evictions);
        w.put_u64(self.resident_bytes);
        self.mem.encode(w);
        self.disk.encode(w);
        w.put_bool(self.has_disk);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CacheStats {
            parse: Codec::decode(r)?,
            optimize: Codec::decode(r)?,
            profile: Codec::decode(r)?,
            compile: Codec::decode(r)?,
            simulate: Codec::decode(r)?,
            evictions: r.get_u64()?,
            resident_bytes: r.get_u64()?,
            mem: Codec::decode(r)?,
            disk: Codec::decode(r)?,
            has_disk: r.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_isa::MachineDescription;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encode_to_vec();
        let back = T::decode_all(&bytes).expect("decode");
        assert_eq!(*v, back);
        assert_eq!(bytes, back.encode_to_vec(), "re-encode must be stable");
    }

    #[test]
    fn requests_roundtrip() {
        let fir = asip_workloads::by_name("fir").unwrap();
        roundtrip(&EvalRequest::new(fir.clone(), MachineDescription::ember4()));
        roundtrip(&EvalRequest::new(fir, MachineDescription::scalar2()).with_ise(24.0));
    }

    #[test]
    fn toolchain_errors_roundtrip() {
        let errs = vec![
            ToolchainError::Frontend(asip_tinyc::CompileError {
                line: 3,
                message: "bad token".into(),
            }),
            ToolchainError::Sim(asip_sim::SimError::MemFault { pc: 7, addr: -4 }),
            ToolchainError::Sim(asip_sim::SimError::CycleLimit),
            ToolchainError::Profile(asip_ir::InterpError::OutOfBounds(-1)),
            ToolchainError::WrongOutput {
                workload: "fir".into(),
                machine: "ember1".into(),
                expected: vec![1, 2],
                actual: vec![1, 3],
            },
            ToolchainError::from(asip_isa::MachineError::NoClusters),
        ];
        roundtrip(&errs);
        assert!(matches!(
            ToolchainError::decode_all(&[9]),
            Err(CodecError::BadTag {
                what: "ToolchainError",
                ..
            })
        ));
    }

    #[test]
    fn real_outcomes_roundtrip_ok_and_err() {
        let s = crate::session::Session::builder().threads(1).build();
        let w = asip_workloads::by_name("fir").unwrap();
        let ok = s.eval(&EvalRequest::new(w.clone(), MachineDescription::ember2()).with_ise(16.0));
        assert!(ok.is_ok());
        roundtrip(&ok);
        let mut sabotaged = w;
        sabotaged.expected = vec![-1];
        let err = s.eval(&EvalRequest::new(sabotaged, MachineDescription::ember1()));
        assert!(!err.is_ok());
        roundtrip(&err);
    }

    #[test]
    fn cache_stats_roundtrip() {
        roundtrip(&CacheStats::default());
        let s = crate::session::Session::builder().threads(1).build();
        let w = asip_workloads::by_name("crc32").unwrap();
        s.eval(&EvalRequest::new(w, MachineDescription::ember1()));
        let stats = s.cache_stats();
        assert!(stats.misses() > 0);
        roundtrip(&stats);
    }
}
