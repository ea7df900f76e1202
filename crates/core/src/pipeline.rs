//! The end-to-end toolchain pipeline: TinyC → IR → optimization → profile →
//! (ISE) → backend → simulation, with golden-model checking.
//!
//! This is the engine under the "single family view" the paper's §3.1
//! promises programmers. Most callers should hold a configured
//! [`Session`](crate::session::Session) (built with
//! [`Session::builder`](crate::session::Session::builder)) and submit
//! [`EvalRequest`](crate::session::EvalRequest) batches; the `Toolchain`
//! here is the per-stage engine those sessions drive.
//!
//! # The stage graph
//!
//! A workload run is an explicit five-stage graph:
//!
//! ```text
//! Parse ──► Optimize ──► Profile ──┐
//!              │                   ▼
//!              └──────────────► Compile[target] ──► Simulate[target]
//! ```
//!
//! The back half dispatches on the machine's [`TargetKind`]: VLIW tables
//! compile to bundled programs and simulate on the bundle-issue model;
//! scalar tables compile to linear [`asip_isa::ScalarProgram`]s and
//! simulate on the in-order pipeline model ([`asip_sim::scalar`]). Both
//! flavors flow through the same stages, caches and error currency, and
//! one chain runs them: [`Session::eval`](crate::session::Session::eval)
//! and [`Toolchain::run_workload`] are the same stage calls.
//!
//! # Memoized stages and their keys
//!
//! All five stages are **memoized** in an [`ArtifactCache`] shared by every
//! clone of a [`Toolchain`]. Each key is the codec encoding of what the
//! stage reads (see [`crate::cache`]):
//!
//! | stage | key |
//! |---|---|
//! | Parse | source |
//! | Optimize | [`OptConfig`], source |
//! | Profile | optimized module payload, inputs, args |
//! | Compile | module payload, machine, [`BackendOptions`], profile payload or a "none" tag |
//! | Simulate | machine, [`SimOptions::max_cycles`], compiled-artifact payload, inputs, args |
//!
//! A parent artifact enters its child's key as its cached payload, shared
//! rather than copied, so the keys chain: a cell's Compile key holds the
//! exact module its Optimize stage produced. The machine's encoding
//! carries its target, so a VLIW and a scalar compile of otherwise equal
//! tables never alias, and the artifact payload opens with its own target
//! tag.
//!
//! A Compile miss first checks the machine with
//! [`MachineDescription::validate`]: a table the toolchain cannot target
//! is a [`ToolchainError::InvalidMachine`], never a panic further down.
//! Errors are never cached, so a warm cell pays nothing for the check.
//!
//! [`Simulate`](StageKind::Simulate) is memoized too: both cycle-level
//! engines are deterministic functions of its key, so a repeated identical
//! cell across ISE/DSE sweeps, or a disk-warm rerun of a whole grid, skips
//! simulation entirely and returns a byte-identical `SimResult`. Its entry
//! also holds the compiled program's [`BackendStats`] and code size, so a
//! hit needs nothing from the program. Two things are deliberately *not*
//! part of its key:
//!
//! * the [`asip_sim::SimEngine`] choice and its promotion threshold — both
//!   engines produce bit-identical `SimResult`s (pinned by the
//!   differential suites and the `session_env` engine-invariance test), so
//!   a cell measured under one is a valid hit for the other, on either
//!   tier;
//! * the golden `expected` stream — the output check runs on every call,
//!   hit or miss, so a sabotaged expectation still reports
//!   [`ToolchainError::WrongOutput`] against the cached measurement.
//!
//! The N×M grid ([`crate::nxm`]) and the ISE/DSE search loops
//! ([`crate::ise`], [`crate::dse`]) therefore stop recompiling identical
//! front halves *and* stop re-measuring identical cells: evaluating M
//! machines against one workload parses, optimizes and profiles it once,
//! and re-evaluating any (artifact, machine, inputs) triple costs a cache
//! probe.
//!
//! # Decoding only what is read
//!
//! The stage chain passes each stage's result to the next as a handle
//! holding the cached payload, which is decoded only when a stage misses
//! and must compute. A fully warm cell therefore hashes its keys and
//! decodes only its Simulate entry. The public stage methods
//! ([`Toolchain::frontend`], [`Toolchain::profile`],
//! [`Toolchain::compile_for`], [`Toolchain::run_artifact`]) take and
//! return decoded values; they build the same keys by encoding their
//! arguments, so both paths share every cache entry.
//!
//! The cache has two tiers (see [`crate::cache`]): an LRU byte-budgeted
//! memory tier, plus an optional persistent disk tier that lets a fresh
//! process warm-start the whole pipeline. [`Toolchain::cache_stats`]
//! exposes per-stage hit/miss and per-tier counters; each stage call's
//! self time goes to its `stage.<name>.self_ns` histogram in
//! [`asip_obs`], and each simulation run's wall time to `sim.run_ns`.

pub use crate::cache::{ArtifactCache, CacheConfig, CacheStats, StageKind, StageStats};
use crate::cache::{KeyWriter, Payload, Staged};
use crate::ise::{extend, IseConfig};
use crate::session::EvalRun;
use asip_backend::{
    compile_module, compile_module_scalar, BackendOptions, BackendStats, CompiledProgram,
    CompiledScalarProgram,
};
use asip_ir::interp::{Interp, InterpOptions, Profile};
use asip_ir::passes::{optimize, OptConfig};
use asip_ir::Module;
use asip_isa::codec::{Codec, CodecError, Reader, Writer};
use asip_isa::{FuKind, MachineDescription, MachineError, TargetKind};
use asip_sim::{ScalarSimulator, SimError, SimOptions, SimResult, Simulator};
use asip_workloads::Workload;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Wall time of each successful simulation run, from its first cycle to
/// its last: the denominator of the session's simulate throughput, beside
/// [`ArtifactCache::sim_cycles`]. Program preparation, cache probes and
/// stores are outside it.
static SIM_RUN_NS: asip_obs::Histogram = asip_obs::Histogram::new("sim.run_ns");

/// Toolchain failure at any stage.
///
/// This is the single error currency of the whole driver layer: grid cells,
/// DSE design points and batch evaluations all report through it (not
/// stringly `Result<_, String>` shapes).
#[derive(Debug, Clone, PartialEq)]
pub enum ToolchainError {
    /// Frontend error.
    Frontend(asip_tinyc::CompileError),
    /// Backend error.
    Backend(asip_backend::BackendError),
    /// Simulator error.
    Sim(asip_sim::SimError),
    /// Interpreter error while profiling.
    Profile(asip_ir::InterpError),
    /// The simulated output did not match the workload's golden stream.
    WrongOutput {
        /// Workload name.
        workload: String,
        /// Machine name.
        machine: String,
        /// Expected prefix.
        expected: Vec<i32>,
        /// Actual prefix.
        actual: Vec<i32>,
    },
    /// The machine table failed [`MachineDescription::validate`]; the
    /// payload is the [`MachineError`]'s message.
    InvalidMachine(String),
}

impl fmt::Display for ToolchainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolchainError::Frontend(e) => write!(f, "frontend: {e}"),
            ToolchainError::Backend(e) => write!(f, "backend: {e}"),
            ToolchainError::Sim(e) => write!(f, "simulator: {e}"),
            ToolchainError::Profile(e) => write!(f, "profiling: {e}"),
            ToolchainError::WrongOutput {
                workload,
                machine,
                expected,
                actual,
            } => write!(
                f,
                "{workload} on {machine}: wrong output (expected {:?}…, got {:?}…)",
                &expected[..expected.len().min(4)],
                &actual[..actual.len().min(4)]
            ),
            ToolchainError::InvalidMachine(e) => write!(f, "invalid machine: {e}"),
        }
    }
}

impl std::error::Error for ToolchainError {}

impl From<asip_tinyc::CompileError> for ToolchainError {
    fn from(e: asip_tinyc::CompileError) -> Self {
        ToolchainError::Frontend(e)
    }
}

impl From<asip_backend::BackendError> for ToolchainError {
    fn from(e: asip_backend::BackendError) -> Self {
        ToolchainError::Backend(e)
    }
}

impl From<asip_sim::SimError> for ToolchainError {
    fn from(e: asip_sim::SimError) -> Self {
        ToolchainError::Sim(e)
    }
}

impl From<MachineError> for ToolchainError {
    fn from(e: MachineError) -> Self {
        ToolchainError::InvalidMachine(e.to_string())
    }
}

/// The configured toolchain engine.
///
/// Cloning is cheap and shares the [`ArtifactCache`]; use
/// [`Toolchain::fresh_cache`] for an isolated one, or
/// [`Toolchain::with_cache`] to attach a specific cache (that is how
/// [`Session`](crate::session::Session) wires a budgeted cache in).
#[derive(Debug, Clone)]
pub struct Toolchain {
    /// Optimization pipeline configuration.
    pub opt: OptConfig,
    /// Backend configuration.
    pub backend: BackendOptions,
    /// Use interpreter profiles to guide superblock formation.
    pub profile_guided: bool,
    /// Simulation engine and limits applied to every Simulate stage.
    pub sim: SimOptions,
    cache: Arc<ArtifactCache>,
}

impl Default for Toolchain {
    fn default() -> Self {
        Toolchain {
            opt: OptConfig::default(),
            backend: BackendOptions::default(),
            profile_guided: true,
            sim: SimOptions::default(),
            cache: Arc::new(ArtifactCache::new()),
        }
    }
}

/// A compiled program for either target kind.
///
/// The Compile stage produces (and caches) one of these; which variant
/// depends on the machine's [`TargetKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledArtifact {
    /// An exposed-pipeline VLIW program.
    Vliw(CompiledProgram),
    /// A linear scalar program.
    Scalar(CompiledScalarProgram),
}

/// The versioned binary encoding of a Compile-stage artifact: a target tag
/// byte followed by the target's own program codec. This is what the
/// persistent cache tier stores and verifies for the Compile stage, and
/// what a Simulate key holds.
impl Codec for CompiledArtifact {
    fn encode(&self, w: &mut Writer) {
        match self {
            CompiledArtifact::Vliw(p) => {
                w.put_u8(0);
                p.encode(w);
            }
            CompiledArtifact::Scalar(p) => {
                w.put_u8(1);
                p.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(CompiledArtifact::Vliw(CompiledProgram::decode(r)?)),
            1 => Ok(CompiledArtifact::Scalar(CompiledScalarProgram::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "CompiledArtifact",
                tag: tag.into(),
            }),
        }
    }
}

impl CompiledArtifact {
    /// Compile-time statistics, whichever the target.
    pub fn stats(&self) -> BackendStats {
        match self {
            CompiledArtifact::Vliw(p) => p.stats,
            CompiledArtifact::Scalar(p) => p.stats,
        }
    }

    /// Code size in bytes under the machine's own encoding.
    pub fn code_bytes(&self, machine: &MachineDescription) -> u32 {
        match self {
            CompiledArtifact::Vliw(p) => {
                asip_isa::encoding::code_bytes(&p.program, machine, machine.encoding)
            }
            CompiledArtifact::Scalar(p) => p.program.code_bytes(machine.encoding),
        }
    }
}

/// Result of running one workload on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// Simulation result.
    pub sim: SimResult,
    /// Compile-time statistics.
    pub compile: BackendStats,
    /// Code size in bytes under the machine's encoding.
    pub code_bytes: u32,
}

/// What the Simulate stage caches: the measurement, plus the compiled
/// program's statistics and code size, so a hit never decodes the program.
struct SimEntry {
    sim: SimResult,
    compile: BackendStats,
    code_bytes: u32,
}

impl Codec for SimEntry {
    fn encode(&self, w: &mut Writer) {
        self.sim.encode(w);
        self.compile.encode(w);
        w.put_u32(self.code_bytes);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SimEntry {
            sim: SimResult::decode(r)?,
            compile: BackendStats::decode(r)?,
            code_bytes: r.get_u32()?,
        })
    }
}

/// A parent artifact as a stage reads it: its payload goes into the
/// stage's key, and its value is read only when the stage misses. Values
/// a caller holds encode to the same bytes a stage result carries, so
/// both kinds of input share every cache entry.
pub(crate) enum Input<'a, V> {
    /// A value the caller holds, encoded into a payload for the key.
    Value(&'a V),
    /// A stage result, whose payload the key shares as it is.
    Staged(&'a Staged<V>),
}

impl<V: Codec> Input<'_, V> {
    fn put(&self, key: &mut KeyWriter) {
        match self {
            Input::Value(v) => key.parent(&Payload::new(v.encode_to_vec().into())),
            Input::Staged(s) => key.parent(s.payload()),
        }
    }

    fn get(&self) -> &V {
        match self {
            Input::Value(v) => v,
            Input::Staged(s) => s.get(),
        }
    }
}

/// Append a workload's inputs and arguments to a key.
fn put_run_inputs(key: &mut Writer, inputs: &[(String, Vec<i32>)], args: &[i32]) {
    key.put_u32(inputs.len() as u32);
    for (name, data) in inputs {
        key.put_str(name);
        key.put_i32s(data);
    }
    key.put_i32s(args);
}

impl Toolchain {
    /// This configuration with a new, empty, unshared, memory-only
    /// artifact cache (same byte budget and hash mask). A disk tier is
    /// never carried over: the fresh cache neither reads the current
    /// cache's directory nor deletes it on [`ArtifactCache::clear`].
    pub fn fresh_cache(&self) -> Toolchain {
        let config = CacheConfig {
            disk: None,
            ..self.cache.config()
        };
        self.with_cache(Arc::new(ArtifactCache::with_config(config)))
    }

    /// This configuration backed by `cache` instead of its current one.
    pub fn with_cache(&self, cache: Arc<ArtifactCache>) -> Toolchain {
        Toolchain {
            opt: self.opt.clone(),
            backend: self.backend.clone(),
            profile_guided: self.profile_guided,
            sim: self.sim,
            cache,
        }
    }

    /// The shared artifact cache (stats, clearing, introspection).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Per-stage cache hit/miss counters plus eviction/residency totals.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// **Parse stage**: TinyC source → unoptimized IR module. Cached by
    /// source text.
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Frontend`] on TinyC errors.
    pub fn parse(&self, source: &str) -> Result<Module, ToolchainError> {
        self.parse_stage(source).map(Staged::into_value)
    }

    fn parse_stage(&self, source: &str) -> Result<Staged<Module>, ToolchainError> {
        let mut key = KeyWriter::new();
        key.writer().put_str(source);
        self.cache
            .get_or_compute(StageKind::Parse, &key.finish(), || {
                Ok(asip_tinyc::compile(source)?)
            })
    }

    /// **Parse + Optimize stages**: TinyC source → optimized IR module.
    /// The optimize stage is cached by (source, [`OptConfig`]).
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Frontend`] on TinyC errors.
    pub fn frontend(&self, source: &str) -> Result<Module, ToolchainError> {
        self.optimize_stage(source).map(Staged::into_value)
    }

    fn optimize_stage(&self, source: &str) -> Result<Staged<Module>, ToolchainError> {
        let mut key = KeyWriter::new();
        self.opt.encode(key.writer());
        key.writer().put_str(source);
        self.cache
            .get_or_compute(StageKind::Optimize, &key.finish(), || {
                // Parse times itself under its own stage.
                let mut module = self.parse_stage(source)?.into_value();
                optimize(&mut module, &self.opt);
                Ok(module)
            })
    }

    /// **Profile stage**: interpret the module to collect block execution
    /// counts. Cached by (module, inputs, args).
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Profile`] if interpretation fails.
    pub fn profile(
        &self,
        module: &Module,
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
    ) -> Result<Profile, ToolchainError> {
        self.profile_stage(Input::Value(module), inputs, args)
            .map(Staged::into_value)
    }

    fn profile_stage(
        &self,
        module: Input<'_, Module>,
        inputs: &[(String, Vec<i32>)],
        args: &[i32],
    ) -> Result<Staged<Profile>, ToolchainError> {
        let mut key = KeyWriter::new();
        module.put(&mut key);
        put_run_inputs(key.writer(), inputs, args);
        self.cache
            .get_or_compute(StageKind::Profile, &key.finish(), || {
                let mut interp = Interp::new(module.get(), InterpOptions::default());
                for (name, data) in inputs {
                    interp.write_global(name, data);
                }
                let r = interp.run("main", args).map_err(ToolchainError::Profile)?;
                Ok(r.profile)
            })
    }

    /// **Compile stage**, dispatched on the machine's [`TargetKind`]: IR
    /// module → VLIW or scalar program (optionally profile-guided). Cached
    /// by (module, machine, backend options, profile).
    ///
    /// # Errors
    ///
    /// [`ToolchainError::InvalidMachine`] if the machine does not
    /// validate, else [`ToolchainError::Backend`].
    pub fn compile_for(
        &self,
        module: &Module,
        machine: &MachineDescription,
        profile: Option<&Profile>,
    ) -> Result<CompiledArtifact, ToolchainError> {
        self.compile_stage(Input::Value(module), machine, profile.map(Input::Value))
            .map(Staged::into_value)
    }

    fn compile_stage(
        &self,
        module: Input<'_, Module>,
        machine: &MachineDescription,
        profile: Option<Input<'_, Profile>>,
    ) -> Result<Staged<CompiledArtifact>, ToolchainError> {
        let mut key = KeyWriter::new();
        module.put(&mut key);
        machine.encode(key.writer());
        self.backend.encode(key.writer());
        match &profile {
            None => key.writer().put_u8(0),
            Some(p) => {
                key.writer().put_u8(1);
                p.put(&mut key);
            }
        }
        self.cache
            .get_or_compute(StageKind::Compile, &key.finish(), || {
                machine.validate()?;
                let module = module.get();
                let profile = profile.as_ref().map(Input::get);
                Ok(match machine.target {
                    TargetKind::Vliw => CompiledArtifact::Vliw(compile_module(
                        module,
                        machine,
                        profile,
                        &self.backend,
                    )?),
                    TargetKind::Scalar => CompiledArtifact::Scalar(compile_module_scalar(
                        module,
                        machine,
                        profile,
                        &self.backend,
                    )?),
                })
            })
    }

    /// Full stage graph for one workload on one machine, checking the
    /// golden output: the stage chain of
    /// [`Session::eval`](crate::session::Session::eval) with no ISE budget.
    ///
    /// # Errors
    ///
    /// Any [`ToolchainError`], including [`ToolchainError::WrongOutput`]
    /// when the simulated stream differs from the golden model.
    pub fn run_workload(
        &self,
        w: &Workload,
        machine: &MachineDescription,
    ) -> Result<WorkloadRun, ToolchainError> {
        self.eval_cell(w, machine, 0.0).map(|cell| cell.run)
    }

    /// The one stage chain: Parse → Optimize → Profile → (ISE) → Compile
    /// → Simulate for `w` on `machine`, golden-checked. Every stage is
    /// served from the artifact cache when possible, and each stage's
    /// result reaches the next as its cached payload, decoded only if the
    /// next stage misses.
    ///
    /// When `ise_budget` is positive and the machine hosts a `Custom`
    /// slot, the module is extended with automatically selected custom
    /// operations before compilation (see [`crate::ise`]) and the result
    /// carries the extended machine and the selection report.
    pub(crate) fn eval_cell(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        ise_budget: f64,
    ) -> Result<EvalRun, ToolchainError> {
        let module = self.optimize_stage(&w.source)?;
        let wants_ise = ise_budget > 0.0 && machine.has_fu(FuKind::Custom);
        // ISE selection needs a profile even when compilation is not
        // profile-guided.
        let profile = if self.profile_guided || wants_ise {
            Some(self.profile_stage(Input::Staged(&module), &w.inputs, &w.args)?)
        } else {
            None
        };
        let guided = profile.as_ref().filter(|_| self.profile_guided);
        let (compiled, machine, ise) = if wants_ise {
            // `extend` rewrites an owned, freshly decoded module: the
            // cache holds only bytes, so no cached artifact changes.
            let mut module = module.into_value();
            let profile = profile.as_ref().expect("profiled for ISE").get();
            let cfg = IseConfig {
                area_budget: ise_budget,
            };
            let mut span = asip_obs::span("ise", "extend");
            let (machine, report) = extend(&mut module, machine, profile, &cfg);
            if span.is_recording() {
                span.detail(format!(
                    "{} ops selected of {} candidates",
                    report.selected.len(),
                    report.candidates_considered
                ));
            }
            drop(span);
            let compiled =
                self.compile_stage(Input::Value(&module), &machine, guided.map(Input::Staged))?;
            (compiled, machine, Some(report))
        } else {
            let compiled =
                self.compile_stage(Input::Staged(&module), machine, guided.map(Input::Staged))?;
            (compiled, machine.clone(), None)
        };
        let run = self.simulate_stage(w, &machine, Input::Staged(&compiled))?;
        Ok(EvalRun { run, machine, ise })
    }

    /// **Simulate stage**: run an already-compiled artifact of either
    /// target kind, on the VLIW or the scalar pipeline model, and check
    /// the golden output. Memoized like every other stage: a repeated
    /// identical cell returns the cached [`SimResult`] without simulating,
    /// and only errors are never cached. The key is built from the
    /// artifact's encoding; the artifact itself is not copied.
    ///
    /// # Errors
    ///
    /// [`ToolchainError::Sim`] or [`ToolchainError::WrongOutput`].
    pub fn run_artifact(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledArtifact,
    ) -> Result<WorkloadRun, ToolchainError> {
        self.simulate_stage(w, machine, Input::Value(compiled))
    }

    /// The Simulate stage, keyed by everything that can change the
    /// deterministic measurement: the machine tables, the [`SimOptions`]
    /// cycle limit, the compiled artifact, and the workload's inputs and
    /// arguments. The cached entry carries the program's statistics and
    /// code size beside the [`SimResult`], so a hit decodes neither the
    /// program nor anything else; the golden check runs on every call.
    fn simulate_stage(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: Input<'_, CompiledArtifact>,
    ) -> Result<WorkloadRun, ToolchainError> {
        let mut key = KeyWriter::new();
        machine.encode(key.writer());
        key.writer().put_u64(self.sim.max_cycles);
        compiled.put(&mut key);
        put_run_inputs(key.writer(), &w.inputs, &w.args);
        let entry = self
            .cache
            .get_or_compute(StageKind::Simulate, &key.finish(), || {
                let compiled = compiled.get();
                let sim = match compiled {
                    CompiledArtifact::Vliw(p) => self.simulate_vliw(w, machine, p)?,
                    CompiledArtifact::Scalar(p) => self.simulate_scalar(w, machine, p)?,
                };
                self.cache.record_sim_cycles(sim.cycles);
                Ok(SimEntry {
                    sim,
                    compile: compiled.stats(),
                    code_bytes: compiled.code_bytes(machine),
                })
            })?
            .into_value();
        if entry.sim.output != w.expected {
            return Err(ToolchainError::WrongOutput {
                workload: w.name.clone(),
                machine: machine.name.clone(),
                expected: w.expected.clone(),
                actual: entry.sim.output,
            });
        }
        Ok(WorkloadRun {
            workload: w.name.clone(),
            machine: machine.name.clone(),
            sim: entry.sim,
            compile: entry.compile,
            code_bytes: entry.code_bytes,
        })
    }

    /// One VLIW measurement: a Simulate miss prepares a [`Simulator`],
    /// runs it once and drops it.
    fn simulate_vliw(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledProgram,
    ) -> Result<SimResult, ToolchainError> {
        let mut sim = Simulator::new(machine, &compiled.program, self.sim)?;
        for (name, data) in &w.inputs {
            sim.write_global(name, data);
        }
        timed_run(|| sim.run(&w.args))
    }

    /// One scalar measurement, like [`Toolchain::simulate_vliw`] on a
    /// [`ScalarSimulator`].
    fn simulate_scalar(
        &self,
        w: &Workload,
        machine: &MachineDescription,
        compiled: &CompiledScalarProgram,
    ) -> Result<SimResult, ToolchainError> {
        let mut sim = ScalarSimulator::new(machine, &compiled.program, self.sim)?;
        for (name, data) in &w.inputs {
            sim.write_global(name, data);
        }
        timed_run(|| sim.run(&w.args))
    }
}

/// Run one simulation, recording its wall time in [`SIM_RUN_NS`] when it
/// succeeds (failed runs add no cycles either).
fn timed_run(
    run: impl FnOnce() -> Result<SimResult, SimError>,
) -> Result<SimResult, ToolchainError> {
    let start = Instant::now();
    let result = run()?;
    SIM_RUN_NS.record(start.elapsed().as_nanos() as u64);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    #[test]
    fn fir_runs_and_checks_on_ember4() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();
        let run = tc.run_workload(&w, &m).unwrap();
        assert!(run.sim.cycles > 0);
        assert!(run.code_bytes > 0);
        assert_eq!(run.workload, "fir");
    }

    #[test]
    fn unoptimized_toolchain_also_correct_but_slower() {
        let opt = Toolchain::default();
        let unopt = Session::builder().unoptimized().build().toolchain().clone();
        let w = asip_workloads::by_name("autocorr").unwrap();
        let m = MachineDescription::ember4();
        let fast = opt.run_workload(&w, &m).unwrap();
        let slow = unopt.run_workload(&w, &m).unwrap();
        assert!(
            fast.sim.cycles < slow.sim.cycles,
            "optimization must help: {} vs {}",
            fast.sim.cycles,
            slow.sim.cycles
        );
    }

    #[test]
    fn unmodelable_icache_at_simulate_is_a_typed_error() {
        // An artifact run on a table it was not compiled for: Compile's
        // machine gate never saw this I-cache, the program validators do.
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();
        let module = tc.frontend(&w.source).unwrap();
        let art = tc.compile_for(&module, &m, None).unwrap();
        let mut bad = m.clone();
        let c = asip_isa::ICacheConfig {
            line_bytes: 0,
            ..bad.icache.unwrap_or_default()
        };
        bad.icache = Some(c);
        let rule = asip_isa::MachineError::BadICache(c).to_string();
        assert_eq!(bad.validate(), Err(asip_isa::MachineError::BadICache(c)));
        match tc.run_artifact(&w, &bad, &art) {
            Err(ToolchainError::Sim(SimError::InvalidProgram(msg))) => assert_eq!(msg, rule),
            other => panic!("expected InvalidProgram({rule:?}), got {other:?}"),
        }
    }

    #[test]
    fn wrong_expected_detected() {
        let tc = Toolchain::default();
        let mut w = asip_workloads::by_name("crc32").unwrap();
        w.expected = vec![42]; // sabotage
        let m = MachineDescription::ember1();
        let err = tc.run_workload(&w, &m).unwrap_err();
        assert!(matches!(err, ToolchainError::WrongOutput { .. }));
    }

    #[test]
    fn repeated_run_hits_every_cacheable_stage() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();

        let first = tc.run_workload(&w, &m).unwrap();
        let cold = tc.cache_stats();
        assert_eq!(cold.hits(), 0, "first run must be all misses: {cold}");
        assert_eq!(cold.parse.misses, 1);
        assert_eq!(cold.optimize.misses, 1);
        assert_eq!(cold.profile.misses, 1);
        assert_eq!(cold.compile.misses, 1);
        assert_eq!(cold.simulate.misses, 1);

        let second = tc.run_workload(&w, &m).unwrap();
        let warm = tc.cache_stats();
        assert_eq!(warm.optimize.hits, 1, "{warm}");
        assert_eq!(warm.profile.hits, 1, "{warm}");
        assert_eq!(warm.compile.hits, 1, "{warm}");
        assert_eq!(warm.simulate.hits, 1, "{warm}");
        // No stage recomputed.
        assert_eq!(warm.misses(), cold.misses(), "{warm}");

        // Cached and uncached runs are identical: the Simulate hit returns
        // the whole SimResult, and the compile stats and code size it
        // carries, unchanged.
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_parent_inputs_never_share_an_entry() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let module = tc.frontend(&w.source).unwrap();
        let profile = tc.profile(&module, &w.inputs, &w.args).unwrap();

        // One module on two machines that differ only in `lat_mul`: the
        // machine bytes in the Compile key keep the two apart.
        let m1 = MachineDescription::ember4();
        let mut m2 = m1.clone();
        m2.lat_mul += 2;
        let before = tc.cache_stats();
        let a1 = tc.compile_for(&module, &m1, Some(&profile)).unwrap();
        tc.compile_for(&module, &m2, Some(&profile)).unwrap();
        let after = tc.cache_stats();
        assert_eq!(after.compile.misses, before.compile.misses + 2, "{after}");
        assert_eq!(after.compile.hits, before.compile.hits, "{after}");

        // One module on two machines that differ only in `target`: the
        // target inside the machine bytes keeps the two apart, and each
        // compile takes its own backend.
        let scalar = MachineDescription::scalar1();
        let mut vliw = scalar.clone();
        vliw.target = TargetKind::Vliw;
        let before = tc.cache_stats();
        let s = tc.compile_for(&module, &scalar, Some(&profile)).unwrap();
        let v = tc.compile_for(&module, &vliw, Some(&profile)).unwrap();
        let after = tc.cache_stats();
        assert_eq!(after.compile.misses, before.compile.misses + 2, "{after}");
        assert_eq!(after.compile.hits, before.compile.hits, "{after}");
        assert!(matches!(s, CompiledArtifact::Scalar(_)));
        assert!(matches!(v, CompiledArtifact::Vliw(_)));
        for (m, art) in [(&scalar, &s), (&vliw, &v)] {
            let run = tc.run_artifact(&w, m, art).unwrap();
            assert_eq!(run.sim.output, w.expected, "{}", m.target);
        }

        // One artifact on two input sets: the input bytes in the Simulate
        // key keep the two apart, and each run reports its own output.
        let mut w2 = w.clone();
        w2.inputs[0].1[0] += 1;
        let mut interp = Interp::new(&module, InterpOptions::default());
        for (name, data) in &w2.inputs {
            interp.write_global(name, data);
        }
        w2.expected = interp.run("main", &w2.args).unwrap().output;
        assert_ne!(w2.expected, w.expected, "the inputs must matter");
        let before = tc.cache_stats();
        let r1 = tc.run_artifact(&w, &m1, &a1).unwrap();
        let r2 = tc.run_artifact(&w2, &m1, &a1).unwrap();
        let after = tc.cache_stats();
        assert_eq!(after.simulate.misses, before.simulate.misses + 2, "{after}");
        assert_eq!(after.simulate.hits, before.simulate.hits, "{after}");
        assert_eq!(r1.sim.output, w.expected);
        assert_eq!(r2.sim.output, w2.expected);
    }

    #[test]
    fn new_machine_reuses_front_half() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("sobel").unwrap();
        tc.run_workload(&w, &MachineDescription::ember1()).unwrap();
        let before = tc.cache_stats();
        tc.run_workload(&w, &MachineDescription::ember8()).unwrap();
        let after = tc.cache_stats();
        // Second machine: frontend + profile served from cache…
        assert_eq!(after.optimize.hits, before.optimize.hits + 1);
        assert_eq!(after.profile.hits, before.profile.hits + 1);
        // …but its compile is a genuine miss (different machine key).
        assert_eq!(after.compile.misses, before.compile.misses + 1);
        assert_eq!(after.compile.hits, before.compile.hits);
    }

    #[test]
    fn cached_result_equals_fresh_toolchain_result() {
        let shared = Toolchain::default();
        let w = asip_workloads::by_name("viterbi").unwrap();
        let m = MachineDescription::ember4();
        shared.run_workload(&w, &m).unwrap();
        let warm = shared.run_workload(&w, &m).unwrap();
        let cold = shared.fresh_cache().run_workload(&w, &m).unwrap();
        assert_eq!(warm.sim.cycles, cold.sim.cycles);
        assert_eq!(warm.sim.output, cold.sim.output);
        assert_eq!(warm.code_bytes, cold.code_bytes);
        assert!(shared.cache_stats().hits() > 0);
        assert_eq!(shared.fresh_cache().cache_stats().hits(), 0);
    }

    #[test]
    fn clones_share_the_cache() {
        let tc = Toolchain::default();
        let clone = tc.clone();
        let w = asip_workloads::by_name("rle").unwrap();
        let m = MachineDescription::ember2();
        tc.run_workload(&w, &m).unwrap();
        clone.run_workload(&w, &m).unwrap();
        assert!(clone.cache_stats().hits() >= 3, "{}", clone.cache_stats());
        assert_eq!(tc.cache_stats(), clone.cache_stats());
    }

    #[test]
    fn clear_cache_resets_everything() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        tc.run_workload(&w, &MachineDescription::ember1()).unwrap();
        assert!(!tc.cache().is_empty());
        tc.cache().clear();
        assert!(tc.cache().is_empty());
        assert_eq!(tc.cache_stats(), CacheStats::default());
    }

    #[test]
    fn different_opt_configs_do_not_alias() {
        // Same cache, different OptConfig → distinct optimize/compile keys.
        let cache = Arc::new(ArtifactCache::new());
        let opt = Toolchain::default().with_cache(Arc::clone(&cache));
        let unopt = Session::builder().unoptimized().cache(cache).build();
        let unopt = unopt.toolchain();
        let w = asip_workloads::by_name("autocorr").unwrap();
        let m = MachineDescription::ember4();
        let fast = opt.run_workload(&w, &m).unwrap();
        let slow = unopt.run_workload(&w, &m).unwrap();
        assert!(fast.sim.cycles < slow.sim.cycles);
        let stats = opt.cache_stats();
        // Two distinct optimized modules and compiles, one shared parse.
        assert_eq!(stats.optimize.misses, 2);
        assert_eq!(stats.compile.misses, 2);
        assert_eq!(stats.parse.misses, 1);
        assert_eq!(stats.parse.hits, 1);
    }

    #[test]
    fn simulate_memoization_survives_sabotaged_expectations() {
        // The golden check runs outside the cached computation: a cached
        // Simulate hit must still be checked against the (possibly
        // different) expected stream of *this* call.
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("rle").unwrap();
        let m = MachineDescription::ember2();
        tc.run_workload(&w, &m).unwrap();
        let mut sabotaged = w.clone();
        sabotaged.expected = vec![-123];
        let err = tc.run_workload(&sabotaged, &m).unwrap_err();
        assert!(matches!(err, ToolchainError::WrongOutput { .. }));
        let stats = tc.cache_stats();
        assert_eq!(
            stats.simulate.hits, 1,
            "sabotaged rerun hits the cached measurement: {stats}"
        );
        // And the honest workload still passes afterwards.
        tc.run_workload(&w, &m).unwrap();
    }

    #[test]
    fn sim_cycles_accumulate_only_on_execution() {
        let tc = Toolchain::default();
        let w = asip_workloads::by_name("fir").unwrap();
        let m = MachineDescription::ember4();
        let run = tc.run_workload(&w, &m).unwrap();
        assert_eq!(tc.cache().sim_cycles(), run.sim.cycles);
        tc.run_workload(&w, &m).unwrap();
        assert_eq!(
            tc.cache().sim_cycles(),
            run.sim.cycles,
            "a Simulate cache hit must not recount cycles"
        );
    }
}
