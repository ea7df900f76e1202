//! The builder-configured [`Session`]: one object that owns the artifact
//! cache and a worker pool, and evaluates any batch of (workload × machine)
//! cells through the unified [`Session::eval_batch`] API.
//!
//! This is the paper's §3.1 "single family view" made operational: the N×M
//! grid ([`crate::nxm`]), design-space exploration ([`crate::dse`]) and ISE
//! budget sweeps ([`crate::ise::sweep_budgets`]) are all thin layers over
//! the same batched evaluation service, so every search loop shares one
//! two-tier [`ArtifactCache`] (LRU-bounded memory, plus a persistent disk
//! tier via [`SessionBuilder::cache_dir`] / `ASIP_CACHE_DIR` for
//! cross-process warm starts) and one parallelism policy.
//!
//! Every cell, whichever the target kind or ISE budget, runs the
//! toolchain's one stage chain (Parse → Optimize → Profile → (ISE) →
//! Compile → Simulate, see [`crate::pipeline`]):
//! [`Session::eval`], [`Session::run_workload`] and
//! [`Toolchain::run_workload`] are the same calls. The builder is the one
//! configuration path: the cache, the worker count, the simulation engine
//! and its threshold, span tracing, and the [`SessionBuilder::unoptimized`]
//! ablation preset.
//!
//! # Quickstart
//!
//! ```
//! use asip_core::session::{EvalRequest, Session};
//! use asip_isa::MachineDescription;
//!
//! let session = Session::builder().threads(2).build();
//! let fir = asip_workloads::by_name("fir").unwrap();
//! let reqs = vec![
//!     EvalRequest::new(fir.clone(), MachineDescription::ember1()),
//!     EvalRequest::new(fir, MachineDescription::ember4()),
//! ];
//! let outcomes = session.eval_batch(&reqs);
//! // Results come back in request order, golden-checked.
//! assert!(outcomes.iter().all(|o| o.cycles().is_some()));
//! ```
//!
//! # Determinism
//!
//! `eval_batch` executes cells on the calling thread and scoped worker
//! threads, all pulling from a shared cursor, and writes each outcome into
//! its request's slot: the result vector is **request-ordered and
//! byte-identical regardless of thread count**. Artifacts are deterministic functions of their stage
//! keys and round-trip the cache's versioned binary codec exactly, so
//! cache hits (from either tier), racing recomputes, LRU evictions and
//! disk warm starts can never change a measurement — only the
//! [`CacheStats`] counters.

use crate::cache::{
    default_cache_bytes, default_cache_dir, ArtifactCache, CacheConfig, CacheStats, DiskTierConfig,
    DEFAULT_DISK_CACHE_BYTES,
};
use crate::ise::IseReport;
use crate::pipeline::{Toolchain, ToolchainError, WorkloadRun};
use asip_ir::passes::OptConfig;
use asip_isa::MachineDescription;
use asip_sim::SimEngine;
use asip_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Full wall time of every [`Session::eval`] call, cache hits included.
static CELL_EVAL_NS: asip_obs::Histogram = asip_obs::Histogram::new("cell.eval_ns");

/// Environment variable overriding the default worker-thread count.
///
/// The builder is the single source of truth for parallelism: an explicit
/// [`SessionBuilder::threads`] call always wins. This variable only feeds
/// the builder's *default* (via [`default_threads`]) and is read nowhere
/// else in the workspace; precedence is pinned by the `session_env`
/// integration test.
pub const THREADS_ENV: &str = "ASIP_GRID_THREADS";

/// Default worker count: the `ASIP_GRID_THREADS` environment variable if
/// set (and a positive integer), else one per available hardware thread.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Configures and builds a [`Session`]. Obtain one with
/// [`Session::builder`]; every knob has a sensible default.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    unoptimized: bool,
    cache_bytes: Option<u64>,
    cache_dir: Option<std::path::PathBuf>,
    disk_cache_bytes: Option<u64>,
    cache: Option<Arc<ArtifactCache>>,
    threads: Option<usize>,
    engine: Option<SimEngine>,
    sb_threshold: Option<u32>,
    trace: Option<std::path::PathBuf>,
}

impl SessionBuilder {
    /// Set the simulation engine serving every evaluation: the block
    /// compiler ([`SimEngine::Block`], the default) or the reference
    /// oracle. Engines differ only in speed: results are bit-identical,
    /// and Simulate cache keys exclude the engine.
    pub fn sim_engine(mut self, engine: SimEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Set the superblock promotion threshold: dispatches a hot
    /// loop-header block must accumulate before the block engine chains a
    /// trace through it (default 64). Like the engine itself it never
    /// changes a measurement, so Simulate cache keys exclude it.
    pub fn sb_threshold(mut self, threshold: u32) -> Self {
        self.sb_threshold = Some(threshold.max(1));
        self
    }

    /// Bound the artifact cache to `bytes` resident bytes (LRU eviction
    /// beyond it). Defaults to the `ASIP_CACHE_BYTES` environment variable,
    /// or 256 MiB. `0` disables artifact retention entirely.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Attach a **persistent disk tier** at `dir`: cached artifacts
    /// survive the process, so the next session pointed at the same
    /// directory skips Parse/Optimize/Profile/Compile for everything it
    /// has seen before.
    ///
    /// Precedence: an explicit call here always wins; otherwise the
    /// `ASIP_CACHE_DIR` environment variable supplies the directory; with
    /// neither, no disk tier is attached.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Bound the disk tier to `bytes` of entry files (oldest evicted
    /// first). Default [`DEFAULT_DISK_CACHE_BYTES`]. Only meaningful when
    /// a disk tier is attached.
    pub fn disk_cache_bytes(mut self, bytes: u64) -> Self {
        self.disk_cache_bytes = Some(bytes);
        self
    }

    /// Attach a pre-built cache (shared with other sessions or configured
    /// through [`CacheConfig`]); overrides
    /// [`SessionBuilder::cache_bytes`], [`SessionBuilder::cache_dir`] and
    /// [`SessionBuilder::disk_cache_bytes`].
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Set the worker-pool width for [`Session::eval_batch`]. Defaults to
    /// the `ASIP_GRID_THREADS` environment variable, or one worker per
    /// available hardware thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Record span traces for this session's process and write them to
    /// `path` (Chrome trace-event JSON) when the harness flushes
    /// (`asip_obs::flush_trace`, or `asip_bench::finish` in the bench
    /// bins).
    ///
    /// Precedence mirrors every other knob: an explicit call here always
    /// wins; otherwise the `ASIP_TRACE` environment variable supplies the
    /// path; with neither, span recording stays off (its disabled cost is
    /// one atomic load per site).
    pub fn trace(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Preset: all optimizations off (baseline for ablation studies): no
    /// IR passes, no superblocks, no profile guidance.
    pub fn unoptimized(mut self) -> Self {
        self.unoptimized = true;
        self
    }

    /// Build the session.
    pub fn build(self) -> Session {
        // Builder wins over environment, like every other knob. The
        // process-global recorder is configured here because sessions are
        // the entry point of every evaluation path (bench bins, the serve
        // workers, tests).
        match self.trace {
            Some(path) => asip_obs::set_trace_path(Some(path)),
            None => asip_obs::init_from_env(),
        }
        let cache = self.cache.unwrap_or_else(|| {
            // Builder wins over environment; environment wins over
            // default-off (pinned by the `session_env` integration tests).
            let disk = self
                .cache_dir
                .or_else(default_cache_dir)
                .map(|dir| DiskTierConfig {
                    dir,
                    byte_budget: self.disk_cache_bytes.unwrap_or(DEFAULT_DISK_CACHE_BYTES),
                });
            Arc::new(ArtifactCache::with_config(CacheConfig {
                byte_budget: self.cache_bytes.unwrap_or_else(default_cache_bytes),
                hash_mask: !0,
                disk,
            }))
        });
        let mut tc = Toolchain::default().with_cache(cache);
        if self.unoptimized {
            tc.opt = OptConfig::none();
            tc.backend.superblocks = false;
            tc.profile_guided = false;
        }
        tc.sim.engine = self.engine.unwrap_or(tc.sim.engine);
        tc.sim.sb_threshold = self.sb_threshold.unwrap_or(tc.sim.sb_threshold);
        Session {
            tc,
            threads: self.threads.unwrap_or_else(default_threads),
        }
    }
}

/// One cell of work: run `workload` on `machine`, ISE-extended when
/// `ise_budget` asks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// The workload to compile and simulate.
    pub workload: Workload,
    /// The family member to target.
    pub machine: MachineDescription,
    /// ISE area budget in adder-equivalents. When positive and the machine
    /// hosts a `Custom` slot, the module is extended with automatically
    /// selected custom operations before compilation (see [`crate::ise`]),
    /// and the outcome's [`EvalRun::machine`] carries the extended
    /// description. `0.0` (the default) evaluates the machine as given.
    pub ise_budget: f64,
}

impl EvalRequest {
    /// A request with no ISE budget.
    pub fn new(workload: Workload, machine: MachineDescription) -> EvalRequest {
        EvalRequest {
            workload,
            machine,
            ise_budget: 0.0,
        }
    }

    /// This request with an ISE area budget (see [`EvalRequest::ise_budget`]).
    pub fn with_ise(mut self, area_budget: f64) -> EvalRequest {
        self.ise_budget = area_budget;
        self
    }

    /// The full machine-major (row-major) cross product: one default
    /// request per (machine, workload) cell, machines outermost — the
    /// layout [`Grid`](crate::nxm::Grid) and the batch consumers expect.
    pub fn grid(machines: &[MachineDescription], workloads: &[Workload]) -> Vec<EvalRequest> {
        machines
            .iter()
            .flat_map(|m| {
                workloads
                    .iter()
                    .map(move |w| EvalRequest::new(w.clone(), m.clone()))
            })
            .collect()
    }
}

/// The successful payload of an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRun {
    /// The golden-checked run (cycles, stalls, energy activity, code size).
    pub run: WorkloadRun,
    /// The machine actually evaluated: the request's machine, ISE-extended
    /// when [`EvalRequest::ise_budget`] asked for it.
    pub machine: MachineDescription,
    /// The ISE selection report, when an extension was requested.
    pub ise: Option<IseReport>,
}

/// Result of one [`EvalRequest`]: names for reporting plus the typed
/// outcome ([`EvalRun`] or [`ToolchainError`] — never a stringly error).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Workload name (from the request).
    pub workload: String,
    /// Base machine name (from the request).
    pub machine: String,
    /// The evaluation result.
    pub result: Result<EvalRun, ToolchainError>,
}

impl EvalOutcome {
    /// Simulated cycles, when the evaluation succeeded.
    pub fn cycles(&self) -> Option<u64> {
        self.result.as_ref().ok().map(|r| r.run.sim.cycles)
    }

    /// Whether the evaluation succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// A builder-configured toolchain session: owns the [`ArtifactCache`] and
/// a worker pool, and evaluates batches of (workload × machine) cells.
///
/// Cloning is cheap and shares the cache (like [`Toolchain`] clones);
/// [`Session::with_threads`] and [`Session::fresh_cache`] derive variants.
#[derive(Debug, Clone)]
pub struct Session {
    tc: Toolchain,
    threads: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The underlying stage engine (shared cache).
    pub fn toolchain(&self) -> &Toolchain {
        &self.tc
    }

    /// Worker-pool width used by [`Session::eval_batch`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This session with a different worker-pool width (shared cache).
    pub fn with_threads(&self, threads: usize) -> Session {
        Session {
            tc: self.tc.clone(),
            threads: threads.max(1),
        }
    }

    /// This session with a new, empty, unshared, memory-only cache (same
    /// byte budget and hash mask; see [`Toolchain::fresh_cache`]).
    pub fn fresh_cache(&self) -> Session {
        Session {
            tc: self.tc.fresh_cache(),
            threads: self.threads,
        }
    }

    /// The session's artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        self.tc.cache()
    }

    /// Cache hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.tc.cache_stats()
    }

    /// Convenience: run one workload on one machine with no ISE budget
    /// (see [`Toolchain::run_workload`]).
    ///
    /// # Errors
    ///
    /// Any [`ToolchainError`].
    pub fn run_workload(
        &self,
        w: &Workload,
        machine: &MachineDescription,
    ) -> Result<WorkloadRun, ToolchainError> {
        self.tc.run_workload(w, machine)
    }

    /// Evaluate one request on the calling thread.
    pub fn eval(&self, req: &EvalRequest) -> EvalOutcome {
        let start = std::time::Instant::now();
        let mut span = asip_obs::span("cell", "eval");
        if span.is_recording() {
            span.detail(format!(
                "{}@{} engine={}",
                req.workload.name,
                req.machine.name,
                self.tc.sim.engine.name()
            ));
        }
        let out = EvalOutcome {
            workload: req.workload.name.clone(),
            machine: req.machine.name.clone(),
            result: self
                .tc
                .eval_cell(&req.workload, &req.machine, req.ise_budget),
        };
        span.note(if out.is_ok() { "ok" } else { "err" });
        drop(span);
        CELL_EVAL_NS.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Evaluate a batch of cells on [`Session::threads`] threads, the
    /// caller's and joined workers: the returned vector is request-ordered
    /// and identical for any thread count.
    pub fn eval_batch(&self, reqs: &[EvalRequest]) -> Vec<EvalOutcome> {
        par_map(self.threads, reqs, |r| self.eval(r))
    }
}

/// Map `f` over `items` on `min(threads, items)` threads, the calling
/// thread and scoped workers, returning the results in item order.
///
/// Every thread pulls items from a shared cursor (long items never leave
/// threads idle) and writes each result into its item's slot, so the
/// output is the same for any thread count. The caller works its share
/// rather than waiting, so a call spawns one thread fewer than it uses.
/// Each worker is joined before the call returns, and a panic on any
/// thread propagates to the caller. A scope alone returns once its
/// threads' closures end, while the threads may still be exiting and
/// holding their glibc malloc arenas; the next pool's workers then attach
/// new arenas, and how many a process ends up keeping resident would
/// depend on thread timing. Joined, every pool's workers reuse the same
/// arenas, and the caller keeps its own.
fn par_map<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(&items[i]);
        slots.lock().expect("no thread panics holding the slots")[i] = Some(out);
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(work)).collect();
        work();
        for w in workers {
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_inner()
        .expect("every thread finished without a panic")
        .into_iter()
        .map(|o| o.expect("every slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_item_order_and_propagates_a_panic() {
        let items: Vec<u32> = (0..40).collect();
        let doubled: Vec<u32> = items.iter().map(|i| i * 2).collect();
        for threads in [0, 1, 2, 3, 8] {
            assert_eq!(par_map(threads, &items, |i| i * 2), doubled, "{threads}");
            assert_eq!(par_map(threads, &items[..0], |i| i * 2), []);
            // Whichever thread draws the item, its panic reaches the caller.
            let panic = std::panic::catch_unwind(|| {
                par_map(threads, &items, |&i| {
                    assert_ne!(i, 29, "item 29");
                    i
                })
            })
            .unwrap_err();
            let msg = panic.downcast_ref::<String>().map(String::as_str);
            assert!(msg.is_some_and(|m| m.contains("item 29")), "{threads}");
        }
    }

    #[test]
    fn builder_defaults_are_sensible() {
        let s = Session::builder().build();
        assert!(s.threads() >= 1);
        assert!(s.toolchain().profile_guided);
        assert_eq!(s.cache().byte_budget(), default_cache_bytes());
    }

    #[test]
    fn builder_overrides_stick() {
        let s = Session::builder()
            .threads(3)
            .cache_bytes(4096)
            .unoptimized()
            .build();
        assert_eq!(s.threads(), 3);
        assert_eq!(s.cache().byte_budget(), 4096);
        assert!(!s.toolchain().profile_guided);
        // threads(0) clamps to 1.
        assert_eq!(Session::builder().threads(0).build().threads(), 1);
    }

    #[test]
    fn eval_batch_returns_request_order() {
        let s = Session::builder().threads(4).build();
        let fir = asip_workloads::by_name("fir").unwrap();
        let crc = asip_workloads::by_name("crc32").unwrap();
        let reqs = vec![
            EvalRequest::new(fir.clone(), MachineDescription::ember4()),
            EvalRequest::new(crc.clone(), MachineDescription::ember1()),
            EvalRequest::new(fir, MachineDescription::ember1()),
            EvalRequest::new(crc, MachineDescription::ember4()),
        ];
        let out = s.eval_batch(&reqs);
        assert_eq!(out.len(), 4);
        for (o, r) in out.iter().zip(&reqs) {
            assert_eq!(o.workload, r.workload.name);
            assert_eq!(o.machine, r.machine.name);
            assert!(o.is_ok(), "{:?}", o.result);
        }
    }

    #[test]
    fn eval_reports_typed_errors() {
        let s = Session::builder().build();
        let mut w = asip_workloads::by_name("rle").unwrap();
        w.expected = vec![-1]; // sabotage the golden stream
        let out = s.eval(&EvalRequest::new(w, MachineDescription::ember2()));
        assert!(matches!(
            out.result,
            Err(ToolchainError::WrongOutput { .. })
        ));
        assert_eq!(out.cycles(), None);
    }

    #[test]
    fn ise_budget_extends_machine_in_outcome() {
        let s = Session::builder().build();
        let w = asip_workloads::by_name("yuv2rgb").unwrap();
        let base = MachineDescription::ember1();
        let out = s.eval(&EvalRequest::new(w, base.clone()).with_ise(32.0));
        let run = out.result.expect("ISE eval runs");
        let report = run.ise.expect("ISE report present");
        assert!(!report.selected.is_empty());
        assert!(run.machine.custom_ops.len() > base.custom_ops.len());
    }

    #[test]
    fn ise_extension_never_mutates_the_cached_module() {
        // `extend` rewrites the optimized module it is given. If that were
        // the cached one, the plain evaluation after it would compile the
        // extended module.
        let w = asip_workloads::by_name("yuv2rgb").unwrap();
        let base = MachineDescription::ember1();
        let s = Session::builder().build();
        let extended = s.eval(&EvalRequest::new(w.clone(), base.clone()).with_ise(32.0));
        assert!(extended.result.expect("ISE eval runs").ise.is_some());
        let plain = EvalRequest::new(w, base);
        let after_ise = s.eval(&plain).result.expect("plain eval runs");
        assert!(s.cache_stats().optimize.hits > 0, "the module was shared");
        let fresh = Session::builder().build().eval(&plain).result;
        assert_eq!(after_ise, fresh.expect("plain eval runs"));
    }

    #[test]
    fn fresh_cache_of_a_disk_session_is_memory_only() {
        let dir = std::env::temp_dir().join(format!("asip-fresh-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::builder().cache_dir(&dir).threads(1).build();
        let w = asip_workloads::by_name("fir").unwrap();
        let req = EvalRequest::new(w, MachineDescription::ember4());
        assert!(s.eval(&req).is_ok());
        let entries = s.cache_stats().disk.entries;
        assert_eq!(entries, 5, "one entry per stage");

        // The fresh cache never reads the directory: every stage misses.
        let fresh = s.fresh_cache();
        assert!(fresh.eval(&req).is_ok());
        let stats = fresh.cache_stats();
        assert!(!stats.has_disk, "{stats}");
        assert_eq!(stats.hits(), 0, "{stats}");
        for stage in [
            stats.parse,
            stats.optimize,
            stats.profile,
            stats.compile,
            stats.simulate,
        ] {
            assert_eq!(stage.misses, 1, "{stats}");
        }
        // ...and clearing it leaves the directory's entries in place.
        fresh.cache().clear();
        let reopened = Session::builder().cache_dir(&dir).build();
        assert_eq!(reopened.cache_stats().disk.entries, entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_is_empty() {
        let s = Session::builder().build();
        assert!(s.eval_batch(&[]).is_empty());
    }
}
