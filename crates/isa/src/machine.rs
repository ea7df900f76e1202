//! Table-driven machine descriptions: one struct describes one family member.
//!
//! This is the paper's central artifact — §3.1: *"[the toolchain] generates
//! code from table-driven architectural descriptions … you can change most of
//! the normal architectural parameters to produce a new model, and continue
//! to generate good code."* Every compiler phase, the simulator and the
//! hardware models read only this description; nothing in the toolchain is
//! specialized to a particular member.

use crate::custom::CustomOpDef;
use crate::op::{FuKind, LatClass, Opcode};
use std::fmt;

/// Instruction-encoding scheme (paper §1.2: "visible instruction
/// compression").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Encoding {
    /// Every bundle occupies `issue_width` fixed 32-bit syllables; empty
    /// slots are explicit NOPs. Simplest decode, largest code.
    Uncompressed,
    /// Only occupied slots are stored; a stop bit marks the end of each
    /// bundle (the TMS320C6x / Multiflow scheme). NOPs are free.
    #[default]
    StopBit,
    /// Stop-bit scheme plus a short 16-bit form for two-operand operations
    /// with small immediates (Thumb/microVLIW-style), at one extra decode
    /// stage.
    Compact16,
}

impl Encoding {
    /// Name used by the description DSL.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Uncompressed => "uncompressed",
            Encoding::StopBit => "stopbit",
            Encoding::Compact16 => "compact16",
        }
    }

    /// Parse a DSL name.
    pub fn from_name(s: &str) -> Option<Encoding> {
        Some(match s {
            "uncompressed" => Encoding::Uncompressed,
            "stopbit" => Encoding::StopBit,
            "compact16" => Encoding::Compact16,
            _ => return None,
        })
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution paradigm of a family member: which backend compiles it and
/// which pipeline model simulates it.
///
/// The paper's central comparison (§2.2) pits customized exposed-pipeline
/// VLIWs against binary-compatible scalar/superscalar processors. Both kinds
/// are described by the same [`MachineDescription`] table; this discriminant
/// selects the code-generation and timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TargetKind {
    /// Exposed-pipeline VLIW: the compiler packs issue slots into bundles;
    /// the simulator issues whole bundles per cycle.
    #[default]
    Vliw,
    /// Scalar in-order RISC (1- or 2-issue superscalar): the compiler emits
    /// a linear instruction stream; the hardware pairs instructions
    /// dynamically, so the binary never encodes the issue width.
    Scalar,
}

impl TargetKind {
    /// Name used by the description DSL.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Vliw => "vliw",
            TargetKind::Scalar => "scalar",
        }
    }

    /// Parse a DSL name.
    pub fn from_name(s: &str) -> Option<TargetKind> {
        Some(match s {
            "vliw" => TargetKind::Vliw,
            "scalar" => TargetKind::Scalar,
            _ => return None,
        })
    }
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One issue slot: the set of functional-unit kinds it can feed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Slot {
    kinds: Vec<FuKind>,
}

impl Slot {
    /// A slot hosting the given functional-unit kinds.
    pub fn new(kinds: &[FuKind]) -> Slot {
        let mut kinds = kinds.to_vec();
        kinds.sort();
        kinds.dedup();
        Slot { kinds }
    }

    /// Whether the slot can execute operations needing `kind`.
    pub fn hosts(&self, kind: FuKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// The functional-unit kinds this slot hosts.
    pub fn kinds(&self) -> &[FuKind] {
        &self.kinds
    }
}

/// First-level instruction-cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ICacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Miss penalty in cycles.
    pub miss_penalty: u32,
}

impl ICacheConfig {
    /// Whether the simulator can model this geometry: line and total sizes
    /// are nonzero powers of two, with at least one line per way (zero
    /// ways model as one). Machine validation and program validation both
    /// apply this one rule.
    pub fn is_modelable(&self) -> bool {
        // `is_power_of_two` is false for zero.
        self.line_bytes.is_power_of_two()
            && self.size_bytes.is_power_of_two()
            && self.size_bytes / self.line_bytes >= self.ways.max(1)
    }
}

impl Default for ICacheConfig {
    fn default() -> Self {
        ICacheConfig {
            size_bytes: 8192,
            line_bytes: 32,
            ways: 2,
            miss_penalty: 10,
        }
    }
}

/// Errors detected when validating a machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The description has no issue slots at all.
    NoSlots,
    /// A cluster index referenced a cluster that does not exist.
    BadCluster(u8),
    /// Fewer registers per cluster than the toolchain minimum (6).
    TooFewRegisters(u16),
    /// No slot can host the given functional-unit kind although operations
    /// of that kind are required (every machine needs Alu, Mem and Branch).
    MissingFu(FuKind),
    /// More than one branch-capable slot in a cluster's bundle.
    MultipleBranchSlots,
    /// A latency was zero (all operations take at least one cycle).
    ZeroLatency(&'static str),
    /// Custom operations are declared but no slot hosts the Custom FU kind.
    CustomOpsWithoutSlot,
    /// A custom operation's datapath needs a functional unit the machine
    /// does not have (e.g. a multiply node on a machine without a Mul slot),
    /// so its latency table would reference hardware that does not exist.
    CustomOpNeedsUnit {
        /// Name of the offending custom operation.
        op: String,
        /// The functional-unit kind its datapath requires.
        unit: FuKind,
    },
    /// A custom operation declares a latency of zero cycles.
    CustomOpZeroLatency {
        /// Name of the offending custom operation.
        op: String,
    },
    /// A scalar-target machine declared more than one register cluster.
    ScalarClustered(u8),
    /// A scalar-target machine declared more issue slots than the in-order
    /// pipeline model supports (1..=2).
    ScalarTooWide(usize),
    /// The machine declares zero register clusters.
    NoClusters,
    /// The instruction cache is not realizable: its line and total sizes
    /// must be nonzero powers of two, with at least one line per way.
    BadICache(ICacheConfig),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NoSlots => write!(f, "machine has no issue slots"),
            MachineError::BadCluster(c) => write!(f, "reference to nonexistent cluster {c}"),
            MachineError::TooFewRegisters(n) => {
                write!(
                    f,
                    "register file of {n} is below the toolchain minimum of 6"
                )
            }
            MachineError::MissingFu(k) => write!(f, "no issue slot hosts required unit kind {k}"),
            MachineError::MultipleBranchSlots => {
                write!(f, "more than one branch-capable slot in the bundle")
            }
            MachineError::ZeroLatency(what) => write!(f, "latency of {what} must be at least 1"),
            MachineError::CustomOpsWithoutSlot => {
                write!(
                    f,
                    "custom operations declared but no slot hosts the custom unit"
                )
            }
            MachineError::CustomOpNeedsUnit { op, unit } => {
                write!(
                    f,
                    "custom op {op:?} needs a {unit} unit the machine does not have"
                )
            }
            MachineError::CustomOpZeroLatency { op } => {
                write!(f, "custom op {op:?} declares a zero-cycle latency")
            }
            MachineError::ScalarClustered(c) => {
                write!(f, "scalar targets are unclustered, but {c} clusters given")
            }
            MachineError::ScalarTooWide(w) => {
                write!(
                    f,
                    "scalar in-order pipelines issue at most 2 per cycle, but {w} slots given"
                )
            }
            MachineError::NoClusters => write!(f, "machine has no register clusters"),
            MachineError::BadICache(c) => write!(
                f,
                "I-cache of {} B in {} B lines, {} ways: sizes must be nonzero powers \
                 of two with at least one line per way",
                c.size_bytes, c.line_bytes, c.ways
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// A complete description of one family member.
///
/// Construct with [`MachineDescription::builder`], one of the named presets,
/// or by parsing the text DSL via [`crate::desc::parse_machine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDescription {
    /// Human-readable model name (e.g. `ember4`).
    pub name: String,
    /// Execution paradigm: VLIW bundles or a scalar in-order pipeline.
    pub target: TargetKind,
    /// Number of register clusters (≥ 1).
    pub clusters: u8,
    /// General-purpose registers per cluster.
    pub regs_per_cluster: u16,
    /// Issue-slot layout per cluster; all clusters share one layout (the
    /// family is homogeneous-clustered, like the Multiflow TRACE).
    pub slots: Vec<Slot>,
    /// Latency, in cycles, of the multiplier.
    pub lat_mul: u32,
    /// Latency, in cycles, of the iterative divider.
    pub lat_div: u32,
    /// Load-use latency, in cycles.
    pub lat_mem: u32,
    /// Cycles lost on a taken branch.
    pub branch_penalty: u32,
    /// Whether results are forwarded (bypassed) to dependent operations.
    /// With forwarding a dependent operation issues `latency` cycles after
    /// its producer; without it, results take one extra cycle through the
    /// register file. Only the scalar pipeline model consults this — the
    /// VLIW members of the family always build the full bypass network
    /// (its cost shows up in [`crate::hwmodel::cycle_time`] instead).
    pub forwarding: bool,
    /// Latency of an inter-cluster copy.
    pub copy_latency: u32,
    /// Instruction-encoding scheme.
    pub encoding: Encoding,
    /// Instruction cache, if modelled.
    pub icache: Option<ICacheConfig>,
    /// Whether idle slots are clock-gated (paper §1.2 "saving power through
    /// visible control"): NOP slots then cost no dynamic energy.
    pub gate_idle_slots: bool,
    /// Application-specific operations this member implements.
    pub custom_ops: Vec<CustomOpDef>,
    /// Area charged for binary-compatibility control logic (rename, issue
    /// queue, reorder buffer). Zero for an exposed-pipeline VLIW; nonzero
    /// for the "mass-market compatible" comparison machines of §2.2.
    pub compat_control: bool,
    /// Data memory size in 32-bit words available to programs.
    pub dmem_words: u32,
}

impl MachineDescription {
    /// Start building a description with the given model name.
    pub fn builder(name: &str) -> MachineBuilder {
        MachineBuilder::new(name)
    }

    /// Total issue width per cycle (slots per cluster × clusters).
    pub fn issue_width(&self) -> usize {
        self.slots.len() * self.clusters as usize
    }

    /// Slots in one cluster's bundle.
    pub fn slots_per_cluster(&self) -> usize {
        self.slots.len()
    }

    /// Latency in cycles of `op` on this machine.
    pub fn latency(&self, op: Opcode) -> u32 {
        match op.lat_class() {
            LatClass::Alu => 1,
            LatClass::Mul => self.lat_mul,
            LatClass::Div => self.lat_div,
            LatClass::Mem => self.lat_mem,
            LatClass::Branch => 1,
            LatClass::Copy => self.copy_latency,
            LatClass::Custom => match op {
                Opcode::Custom(k) => self
                    .custom_ops
                    .get(k as usize)
                    .map(|d| d.latency)
                    .unwrap_or(1),
                _ => 1,
            },
        }
    }

    /// Whether any slot of a cluster hosts `kind`.
    pub fn has_fu(&self, kind: FuKind) -> bool {
        self.slots.iter().any(|s| s.hosts(kind))
    }

    /// Number of slots per cluster hosting `kind`.
    pub fn fu_count(&self, kind: FuKind) -> usize {
        self.slots.iter().filter(|s| s.hosts(kind)).count()
    }

    /// Look up a custom operation definition.
    pub fn custom_op(&self, id: u16) -> Option<&CustomOpDef> {
        self.custom_ops.get(id as usize)
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`MachineError`] found; a `Ok(())` result means the
    /// whole toolchain can target the machine.
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.slots.is_empty() {
            return Err(MachineError::NoSlots);
        }
        if self.clusters == 0 {
            return Err(MachineError::NoClusters);
        }
        if self.regs_per_cluster < 6 {
            return Err(MachineError::TooFewRegisters(self.regs_per_cluster));
        }
        for kind in [FuKind::Alu, FuKind::Mem, FuKind::Branch] {
            if !self.has_fu(kind) {
                return Err(MachineError::MissingFu(kind));
            }
        }
        if self.fu_count(FuKind::Branch) > 1 {
            return Err(MachineError::MultipleBranchSlots);
        }
        for (lat, what) in [
            (self.lat_mul, "mul"),
            (self.lat_div, "div"),
            (self.lat_mem, "mem"),
            (self.copy_latency, "copy"),
        ] {
            if lat == 0 {
                return Err(MachineError::ZeroLatency(what));
            }
        }
        if let Some(c) = self.icache.filter(|c| !c.is_modelable()) {
            return Err(MachineError::BadICache(c));
        }
        if !self.custom_ops.is_empty() && !self.has_fu(FuKind::Custom) {
            return Err(MachineError::CustomOpsWithoutSlot);
        }
        // Every custom op's latency table must be realizable: a datapath
        // node that needs a unit kind the machine lacks (a multiply node on
        // a machine without a Mul slot) would reference nonexistent
        // hardware. Checked here, not just at schedule time.
        for def in &self.custom_ops {
            if def.latency == 0 {
                return Err(MachineError::CustomOpZeroLatency {
                    op: def.name.clone(),
                });
            }
            for node in &def.nodes {
                let unit = node.op.fu_kind();
                if unit != FuKind::Alu && !self.has_fu(unit) {
                    return Err(MachineError::CustomOpNeedsUnit {
                        op: def.name.clone(),
                        unit,
                    });
                }
            }
        }
        if self.target == TargetKind::Scalar {
            if self.clusters != 1 {
                return Err(MachineError::ScalarClustered(self.clusters));
            }
            if self.slots.len() > 2 {
                return Err(MachineError::ScalarTooWide(self.slots.len()));
            }
        }
        Ok(())
    }

    /// Derive a new member of the family with a different name and the given
    /// tweak applied — the `ISA drift` operation (§2.1) in its smallest form.
    pub fn derive<F: FnOnce(&mut MachineDescription)>(&self, name: &str, tweak: F) -> Self {
        let mut m = self.clone();
        m.name = name.to_string();
        tweak(&mut m);
        m
    }

    // ------------------------------------------------------------------
    // Named presets: the reference family used throughout the experiments.
    // ------------------------------------------------------------------

    /// `ember1`: single-issue RISC-like reference member (one slot hosting
    /// everything), 32 registers.
    pub fn ember1() -> Self {
        Self::builder("ember1")
            .registers(32)
            .slot(&[
                FuKind::Alu,
                FuKind::Mul,
                FuKind::Mem,
                FuKind::Branch,
                FuKind::Custom,
            ])
            .build()
            .expect("preset is valid")
    }

    /// `ember2`: 2-issue member.
    pub fn ember2() -> Self {
        Self::builder("ember2")
            .registers(32)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu, FuKind::Mul, FuKind::Custom])
            .build()
            .expect("preset is valid")
    }

    /// `ember4`: the paper's "4-issue customized VLIW in about the chip area
    /// of a RISC" (§2.2). Two ALUs, a multiplier slot, a memory slot.
    pub fn ember4() -> Self {
        Self::builder("ember4")
            .registers(32)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu, FuKind::Mul])
            .slot(&[FuKind::Alu, FuKind::Custom])
            .slot(&[FuKind::Alu, FuKind::Mul, FuKind::Mem])
            .build()
            .expect("preset is valid")
    }

    /// `ember8`: wide 8-issue member (ILP headroom probe).
    pub fn ember8() -> Self {
        Self::builder("ember8")
            .registers(64)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu, FuKind::Mul])
            .slot(&[FuKind::Alu, FuKind::Custom])
            .slot(&[FuKind::Alu, FuKind::Mul, FuKind::Mem])
            .slot(&[FuKind::Alu])
            .slot(&[FuKind::Alu, FuKind::Mul])
            .slot(&[FuKind::Alu, FuKind::Mem])
            .slot(&[FuKind::Alu])
            .build()
            .expect("preset is valid")
    }

    /// `ember4x2`: two clusters of 2 slots each (same total width as
    /// `ember4`, shorter register-file/bypass critical path).
    pub fn ember4x2() -> Self {
        Self::builder("ember4x2")
            .clusters(2)
            .registers(16)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu, FuKind::Mul, FuKind::Custom])
            .build()
            .expect("preset is valid")
    }

    /// `massmarket`: a binary-compatible superscalar stand-in — 2-issue with
    /// the compatibility-control area tax of §2.2 ("no area is used to
    /// maintain the compatibility that the run-time techniques maintain").
    pub fn massmarket() -> Self {
        Self::builder("massmarket")
            .registers(32)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu, FuKind::Mul])
            .compat_control(true)
            .build()
            .expect("preset is valid")
    }

    /// `scalar1`: a binary-compatible single-issue 5-stage scalar RISC with
    /// full forwarding — the measured counterpart of the §2.2 "mass-market"
    /// baseline. Same register file, latencies and custom-op table as the
    /// VLIW members; only the code generator and pipeline model differ.
    pub fn scalar1() -> Self {
        Self::builder("scalar1")
            .target(TargetKind::Scalar)
            .registers(32)
            .slot(&[
                FuKind::Alu,
                FuKind::Mul,
                FuKind::Mem,
                FuKind::Branch,
                FuKind::Custom,
            ])
            .branch_penalty(2)
            .compat_control(true)
            .build()
            .expect("preset is valid")
    }

    /// `scalar2`: a dual-issue in-order superscalar — the measured
    /// replacement for the analytical [`MachineDescription::massmarket`]
    /// stand-in in the RISC-vs-VLIW comparison. The two slots describe the
    /// dynamic pairing rules (ALU/Mem/Branch beside ALU/Mul/Custom); the
    /// binary itself stays a scalar instruction stream.
    pub fn scalar2() -> Self {
        Self::builder("scalar2")
            .target(TargetKind::Scalar)
            .registers(32)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu, FuKind::Mul, FuKind::Custom])
            .branch_penalty(2)
            .compat_control(true)
            .build()
            .expect("preset is valid")
    }

    /// All named VLIW presets.
    pub fn presets() -> Vec<MachineDescription> {
        vec![
            Self::ember1(),
            Self::ember2(),
            Self::ember4(),
            Self::ember8(),
            Self::ember4x2(),
            Self::massmarket(),
        ]
    }

    /// The scalar-target presets.
    pub fn scalar_presets() -> Vec<MachineDescription> {
        vec![Self::scalar1(), Self::scalar2()]
    }

    /// Every preset of both target kinds (the full N×M grid rows).
    pub fn all_presets() -> Vec<MachineDescription> {
        let mut v = Self::presets();
        v.extend(Self::scalar_presets());
        v
    }
}

/// Builder for [`MachineDescription`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    m: MachineDescription,
}

impl MachineBuilder {
    /// Start from the family defaults.
    pub fn new(name: &str) -> MachineBuilder {
        MachineBuilder {
            m: MachineDescription {
                name: name.to_string(),
                target: TargetKind::Vliw,
                clusters: 1,
                regs_per_cluster: 32,
                slots: Vec::new(),
                lat_mul: 2,
                lat_div: 8,
                lat_mem: 2,
                branch_penalty: 1,
                forwarding: true,
                copy_latency: 1,
                encoding: Encoding::StopBit,
                icache: Some(ICacheConfig::default()),
                gate_idle_slots: true,
                custom_ops: Vec::new(),
                compat_control: false,
                dmem_words: 1 << 20,
            },
        }
    }

    /// Select the execution paradigm (default [`TargetKind::Vliw`]).
    pub fn target(&mut self, t: TargetKind) -> &mut Self {
        self.m.target = t;
        self
    }

    /// Enable or disable result forwarding (default on; see
    /// [`MachineDescription::forwarding`]).
    pub fn forwarding(&mut self, on: bool) -> &mut Self {
        self.m.forwarding = on;
        self
    }

    /// Set the number of clusters.
    pub fn clusters(&mut self, n: u8) -> &mut Self {
        self.m.clusters = n.max(1);
        self
    }

    /// Set registers per cluster.
    pub fn registers(&mut self, n: u16) -> &mut Self {
        self.m.regs_per_cluster = n;
        self
    }

    /// Append an issue slot hosting the given unit kinds.
    pub fn slot(&mut self, kinds: &[FuKind]) -> &mut Self {
        self.m.slots.push(Slot::new(kinds));
        self
    }

    /// Set the multiplier latency.
    pub fn lat_mul(&mut self, n: u32) -> &mut Self {
        self.m.lat_mul = n;
        self
    }

    /// Set the divider latency.
    pub fn lat_div(&mut self, n: u32) -> &mut Self {
        self.m.lat_div = n;
        self
    }

    /// Set the load-use latency.
    pub fn lat_mem(&mut self, n: u32) -> &mut Self {
        self.m.lat_mem = n;
        self
    }

    /// Set the taken-branch penalty in cycles.
    pub fn branch_penalty(&mut self, n: u32) -> &mut Self {
        self.m.branch_penalty = n;
        self
    }

    /// Set the inter-cluster copy latency.
    pub fn copy_latency(&mut self, n: u32) -> &mut Self {
        self.m.copy_latency = n;
        self
    }

    /// Select the instruction encoding.
    pub fn encoding(&mut self, e: Encoding) -> &mut Self {
        self.m.encoding = e;
        self
    }

    /// Configure (or disable, with `None`) the instruction cache.
    pub fn icache(&mut self, cfg: Option<ICacheConfig>) -> &mut Self {
        self.m.icache = cfg;
        self
    }

    /// Enable or disable idle-slot clock gating.
    pub fn gate_idle_slots(&mut self, on: bool) -> &mut Self {
        self.m.gate_idle_slots = on;
        self
    }

    /// Add a custom operation to the member's repertoire; returns its id.
    pub fn custom_op(&mut self, def: CustomOpDef) -> &mut Self {
        self.m.custom_ops.push(def);
        self
    }

    /// Mark the machine as paying the binary-compatibility control-area tax.
    pub fn compat_control(&mut self, on: bool) -> &mut Self {
        self.m.compat_control = on;
        self
    }

    /// Set the simulated data-memory size in words.
    pub fn dmem_words(&mut self, n: u32) -> &mut Self {
        self.m.dmem_words = n;
        self
    }

    /// Validate and produce the description.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] reported by [`MachineDescription::validate`].
    pub fn build(&self) -> Result<MachineDescription, MachineError> {
        let m = self.m.clone();
        m.validate()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for m in MachineDescription::all_presets() {
            assert_eq!(m.validate(), Ok(()), "{} must validate", m.name);
        }
    }

    #[test]
    fn scalar_presets_are_scalar_targets() {
        let s1 = MachineDescription::scalar1();
        let s2 = MachineDescription::scalar2();
        assert_eq!(s1.target, TargetKind::Scalar);
        assert_eq!(s1.issue_width(), 1);
        assert_eq!(s2.target, TargetKind::Scalar);
        assert_eq!(s2.issue_width(), 2);
        assert!(s1.forwarding && s2.forwarding);
        // VLIW presets keep the default target.
        assert!(MachineDescription::presets()
            .iter()
            .all(|m| m.target == TargetKind::Vliw));
    }

    #[test]
    fn scalar_shape_rules_enforced() {
        let e = MachineDescription::builder("x")
            .target(TargetKind::Scalar)
            .clusters(2)
            .registers(16)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .build()
            .unwrap_err();
        assert_eq!(e, MachineError::ScalarClustered(2));

        let e = MachineDescription::builder("x")
            .target(TargetKind::Scalar)
            .registers(16)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Alu])
            .slot(&[FuKind::Alu])
            .build()
            .unwrap_err();
        assert_eq!(e, MachineError::ScalarTooWide(3));
    }

    #[test]
    fn custom_op_unit_requirements_validated() {
        // A MAC datapath contains a multiply node: a machine whose slots
        // host Custom but not Mul must be rejected at validation time, not
        // discovered at schedule time.
        let e = MachineDescription::builder("x")
            .registers(16)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch, FuKind::Custom])
            .custom_op(crate::custom::mac_op())
            .build()
            .unwrap_err();
        assert_eq!(
            e,
            MachineError::CustomOpNeedsUnit {
                op: "mac".into(),
                unit: FuKind::Mul,
            }
        );

        // The same machine with a Mul slot is fine.
        MachineDescription::builder("x")
            .registers(16)
            .slot(&[
                FuKind::Alu,
                FuKind::Mul,
                FuKind::Mem,
                FuKind::Branch,
                FuKind::Custom,
            ])
            .custom_op(crate::custom::mac_op())
            .build()
            .expect("mul-capable machine hosts a mac");

        // Pure-ALU datapaths never trip the unit check.
        MachineDescription::builder("x")
            .registers(16)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch, FuKind::Custom])
            .custom_op(crate::custom::sat_add16())
            .build()
            .expect("alu-only custom op needs no extra unit");
    }

    #[test]
    fn custom_op_zero_latency_rejected() {
        let mut def = crate::custom::sat_add16();
        def.latency = 0;
        let e = MachineDescription::builder("x")
            .registers(16)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch, FuKind::Custom])
            .custom_op(def)
            .build()
            .unwrap_err();
        assert_eq!(
            e,
            MachineError::CustomOpZeroLatency {
                op: "sadd16".into()
            }
        );
    }

    #[test]
    fn issue_width_counts_clusters() {
        assert_eq!(MachineDescription::ember4().issue_width(), 4);
        assert_eq!(MachineDescription::ember4x2().issue_width(), 4);
        assert_eq!(MachineDescription::ember4x2().slots_per_cluster(), 2);
    }

    #[test]
    fn latencies_follow_table() {
        let m = MachineDescription::builder("t")
            .registers(16)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch, FuKind::Mul])
            .lat_mul(3)
            .lat_mem(4)
            .lat_div(12)
            .build()
            .unwrap();
        assert_eq!(m.latency(Opcode::Add), 1);
        assert_eq!(m.latency(Opcode::Mul), 3);
        assert_eq!(m.latency(Opcode::Ldw), 4);
        assert_eq!(m.latency(Opcode::Div), 12);
    }

    #[test]
    fn validation_rejects_bad_machines() {
        let e = MachineDescription::builder("x").build().unwrap_err();
        assert_eq!(e, MachineError::NoSlots);

        let e = MachineDescription::builder("x")
            .registers(4)
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .build()
            .unwrap_err();
        assert_eq!(e, MachineError::TooFewRegisters(4));

        let e = MachineDescription::builder("x")
            .slot(&[FuKind::Alu])
            .build()
            .unwrap_err();
        assert_eq!(e, MachineError::MissingFu(FuKind::Mem));

        let e = MachineDescription::builder("x")
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .slot(&[FuKind::Branch])
            .build()
            .unwrap_err();
        assert_eq!(e, MachineError::MultipleBranchSlots);

        let e = MachineDescription::builder("x")
            .slot(&[FuKind::Alu, FuKind::Mem, FuKind::Branch])
            .lat_mem(0)
            .build()
            .unwrap_err();
        assert_eq!(e, MachineError::ZeroLatency("mem"));
    }

    #[test]
    fn derive_produces_family_member() {
        let base = MachineDescription::ember4();
        let fast = base.derive("ember4-fastmul", |m| m.lat_mul = 1);
        assert_eq!(fast.name, "ember4-fastmul");
        assert_eq!(fast.lat_mul, 1);
        assert_eq!(base.lat_mul, 2, "original is untouched");
        assert_eq!(fast.slots, base.slots);
    }

    #[test]
    fn slot_dedups_kinds() {
        let s = Slot::new(&[FuKind::Alu, FuKind::Alu, FuKind::Mem]);
        assert_eq!(s.kinds().len(), 2);
        assert!(s.hosts(FuKind::Alu));
        assert!(!s.hosts(FuKind::Branch));
    }

    #[test]
    fn encoding_names_roundtrip() {
        for e in [
            Encoding::Uncompressed,
            Encoding::StopBit,
            Encoding::Compact16,
        ] {
            assert_eq!(Encoding::from_name(e.name()), Some(e));
        }
        assert_eq!(Encoding::from_name("zip"), None);
    }
}
