//! The traced run: per-layer numbers measured from the benchmark's own
//! code, around calls into each layer's public functions. Nothing inside
//! the toolchain is instrumented (`asip_obs` span recording stays off).
//!
//! One traced iteration has three phases:
//!
//! * **A, the traced pass** — the workload's pass, with the stage calls of
//!   `Session::eval_inner` (`parse` → `frontend` → `profile` →
//!   [`ise::extend`] → `compile_for` → `run_artifact`) made one by one on
//!   the session's worker count, each inside a span. `sim_long`'s pass is
//!   `run_artifact` alone. Its wall time against the untraced pass run in
//!   the same process is the tracing overhead.
//! * **B, attribution** — on one thread and a fresh cache, every cell's
//!   stage calls again, and after each stage call that missed the cache,
//!   the raw layer call on the same inputs (`asip_tinyc::compile`,
//!   `passes::optimize`, `Interp::run`, `compile_module(_scalar)`, the
//!   engine's `new` + `run_with_inputs`). Stage minus raw is the cache's
//!   overhead.
//! * **C, warm repeat** — the stage calls once more on B's now-warm cache
//!   (hit latencies), plus codec encode/decode of each cell's artifact and
//!   simulation result.

use crate::stats::{median, quantile};
use crate::workloads::{
    check_pass, fold_batches, par_map, simulate, Cell, Kind, Pass, Prepared, Record, THREADS,
};
use asip_backend::{compile_module, compile_module_scalar};
use asip_core::ise::{extend, IseConfig};
use asip_core::{CacheStats, CompiledArtifact, EvalRun, Toolchain, ToolchainError};
use asip_ir::interp::{Interp, InterpOptions, Profile};
use asip_ir::passes::optimize;
use asip_ir::Module;
use asip_isa::codec::Codec;
use asip_isa::{FuKind, MachineDescription, TargetKind};
use asip_sim::{ScalarSimulator, SimResult, Simulator};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Spans kept in memory (by id, across all recorders); later ones are
/// counted, not stored.
const MAX_SPANS: u32 = 60_000;

/// The five cached stages, in pipeline order.
pub const STAGES: [&str; 5] = ["parse", "optimize", "profile", "compile", "simulate"];

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub phase: &'static str,
    pub cell: u32,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

static NEXT_SPAN: AtomicU32 = AtomicU32::new(0);

/// A per-thread span recorder; spans nest through `span`'s closure.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    phase: &'static str,
    stack: Vec<u32>,
    pub spans: Vec<SpanRec>,
    pub dropped: u64,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32, phase: &'static str) -> Recorder {
        Recorder {
            epoch,
            tid,
            phase,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Run `f` inside a span named `name` for `cell`; returns its result
    /// and the span's duration in nanoseconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, u64) {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        self.stack.pop();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        if id < MAX_SPANS {
            self.spans.push(SpanRec {
                id,
                parent,
                name,
                phase: self.phase,
                cell,
                tid: self.tid,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        } else {
            self.dropped += 1;
        }
        (r, end.duration_since(start).as_nanos() as u64)
    }
}

/// Per-pass layer totals from phase B.
#[derive(Debug, Default, Clone)]
struct Layers {
    /// Raw layer nanoseconds per stage (simulate = prepare + run).
    raw_ns: [u64; 5],
    /// Stage-call nanoseconds on cache misses, per stage.
    miss_ns: [u64; 5],
    prepare_ns: u64,
    run_ns: u64,
    run_cycles: u64,
    extend_ns: u64,
    ops_selected: u64,
    insts_out: u64,
    bundles: u64,
    spill_slots: u64,
    codec_bytes: u64,
}

/// Samples pooled over every traced iteration.
#[derive(Debug, Default)]
struct Samples {
    layers: Vec<Layers>,
    hit_us: [Vec<f64>; 5],
    art_encode_us: Vec<f64>,
    art_decode_us: Vec<f64>,
    sim_encode_us: Vec<f64>,
    sim_decode_us: Vec<f64>,
    cell_ms: Vec<f64>,
    busy: Vec<f64>,
    traced_pass_ms: Vec<f64>,
    untraced_pass_ms: Vec<f64>,
    hit_ratio: Vec<f64>,
    resident_kib: Vec<f64>,
}

/// What phase B keeps of a cell for phase C.
struct CellState {
    module: Module,
    profile: Option<Profile>,
    machine: MachineDescription,
    artifact: CompiledArtifact,
    sim: SimResult,
}

/// The traced run's outcome.
#[derive(Debug)]
pub struct TraceOutcome {
    /// Per-layer metrics: (name, unit, value).
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Sample counts behind the quantile metrics: (metric, count).
    pub counts: Vec<(String, usize)>,
    pub spans: Vec<SpanRec>,
    pub spans_dropped: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub traced_iterations: usize,
}

fn stage_misses(s: &CacheStats, stage: usize) -> u64 {
    [s.parse, s.optimize, s.profile, s.compile, s.simulate][stage].misses
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Static instruction count of a module (terminators included).
fn inst_count(m: &Module) -> u64 {
    m.funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() as u64 + 1)
        .sum()
}

/// A stage call, timed in a span; when `attributing` it also reports
/// whether the call missed the cache.
fn stage<R>(
    tc: &Toolchain,
    rec: &mut Recorder,
    cell: u32,
    idx: usize,
    attributing: bool,
    f: impl FnOnce() -> R,
) -> (R, u64, bool) {
    let before = attributing.then(|| stage_misses(&tc.cache_stats(), idx));
    let (r, ns) = rec.span(STAGES[idx], cell, |_| f());
    let missed = before.is_some_and(|b| stage_misses(&tc.cache_stats(), idx) > b);
    (r, ns, missed)
}

/// Raw engine preparation and run: `Simulator`/`ScalarSimulator` prepare
/// the session's engine (its `new`, e.g. `BlockVliw::new`) and run it
/// through its `run_with_inputs`. Returns (result, prepare ns, run ns).
fn raw_simulate(
    tc: &Toolchain,
    rec: &mut Recorder,
    cell: u32,
    w: &asip_workloads::Workload,
    m: &MachineDescription,
    art: &CompiledArtifact,
) -> (Result<SimResult, asip_sim::SimError>, u64, u64) {
    let opts = tc.sim;
    match art {
        CompiledArtifact::Vliw(p) => {
            let (sim, prep) = rec.span("sim.prepare", cell, |_| {
                let mut sim = Simulator::new(m, &p.program, opts)?;
                for (name, data) in &w.inputs {
                    sim.write_global(name, data);
                }
                Ok(sim)
            });
            match sim {
                Ok(sim) => {
                    let (r, run) = rec.span("sim.run", cell, |_| sim.run(&w.args));
                    (r, prep, run)
                }
                Err(e) => (Err(e), prep, 0),
            }
        }
        CompiledArtifact::Scalar(p) => {
            let (sim, prep) = rec.span("sim.prepare", cell, |_| {
                let mut sim = ScalarSimulator::new(m, &p.program, opts)?;
                for (name, data) in &w.inputs {
                    sim.write_global(name, data);
                }
                Ok(sim)
            });
            match sim {
                Ok(sim) => {
                    let (r, run) = rec.span("sim.run", cell, |_| sim.run(&w.args));
                    (r, prep, run)
                }
                Err(e) => (Err(e), prep, 0),
            }
        }
    }
}

/// Every stage call of one cell in `Session::eval_inner`'s order. With
/// `layers` set (phase B) each missed stage is followed by its raw layer
/// call, and the totals go into `layers`.
fn cell_stages(
    tc: &Toolchain,
    cell: &Cell,
    id: u32,
    rec: &mut Recorder,
    mut layers: Option<&mut Layers>,
) -> Result<(EvalRun, CellState), ToolchainError> {
    let attributing = layers.is_some();
    let w = &cell.workload;
    let (parsed, ns, missed) = stage(tc, rec, id, 0, attributing, || tc.parse(&w.source));
    let parsed = parsed?;
    if let (Some(l), true) = (layers.as_deref_mut(), missed) {
        let (_, raw) = rec.span("tinyc.compile", id, |_| {
            black_box(asip_tinyc::compile(&w.source))
        });
        l.raw_ns[0] += raw;
        l.miss_ns[0] += ns;
    }
    let (module, ns, missed) = stage(tc, rec, id, 1, attributing, || tc.frontend(&w.source));
    let mut module = module?;
    if let (Some(l), true) = (layers.as_deref_mut(), missed) {
        let mut m = parsed.clone();
        let (_, raw) = rec.span("ir.optimize", id, |_| optimize(&mut m, &tc.opt));
        black_box(m);
        l.raw_ns[1] += raw;
        l.miss_ns[1] += ns;
    }
    let wants_ise = cell.budget > 0.0 && cell.machine.has_fu(FuKind::Custom);
    let profile = if tc.profile_guided || wants_ise {
        let (p, ns, missed) = stage(tc, rec, id, 2, attributing, || {
            tc.profile(&module, &w.inputs, &w.args)
        });
        if let (Some(l), true) = (layers.as_deref_mut(), missed) {
            let (_, raw) = rec.span("ir.interp", id, |_| {
                let mut interp = Interp::new(&module, InterpOptions::default());
                for (name, data) in &w.inputs {
                    interp.write_global(name, data);
                }
                black_box(interp.run("main", &w.args))
            });
            l.raw_ns[2] += raw;
            l.miss_ns[2] += ns;
        }
        Some(p?)
    } else {
        None
    };
    let (machine, ise) = if wants_ise {
        let cfg = IseConfig {
            area_budget: cell.budget,
            ..Default::default()
        };
        let profile = profile.as_ref().expect("profiled for ISE");
        let ((m2, report), ns) = rec.span("ise.extend", id, |_| {
            extend(&mut module, &cell.machine, profile, &cfg)
        });
        if let Some(l) = layers.as_deref_mut() {
            l.extend_ns += ns;
            l.ops_selected += report.selected.len() as u64;
        }
        (m2, Some(report))
    } else {
        (cell.machine.clone(), None)
    };
    let guided = if tc.profile_guided {
        profile.as_ref()
    } else {
        None
    };
    let (art, ns, missed) = stage(tc, rec, id, 3, attributing, || {
        tc.compile_for(&module, &machine, guided)
    });
    let art = art?;
    if let (Some(l), true) = (layers.as_deref_mut(), missed) {
        let (_, raw) = rec.span("backend.compile", id, |_| match machine.target {
            TargetKind::Vliw => {
                black_box(compile_module(&module, &machine, guided, &tc.backend)).map(|_| ())
            }
            TargetKind::Scalar => black_box(compile_module_scalar(
                &module,
                &machine,
                guided,
                &tc.backend,
            ))
            .map(|_| ()),
        });
        l.raw_ns[3] += raw;
        l.miss_ns[3] += ns;
    }
    let (run, ns, missed) = stage(tc, rec, id, 4, attributing, || {
        tc.run_artifact(w, &machine, &art)
    });
    let run = run?;
    if let Some(l) = layers {
        if missed {
            let (sim, prep, run_ns) = raw_simulate(tc, rec, id, w, &machine, &art);
            if let Ok(sim) = &sim {
                l.run_cycles += sim.cycles;
            }
            l.prepare_ns += prep;
            l.run_ns += run_ns;
            l.raw_ns[4] += prep + run_ns;
            l.miss_ns[4] += ns;
        }
        l.insts_out += inst_count(&module);
        let stats = art.stats();
        l.bundles += stats.bundles as u64;
        l.spill_slots += u64::from(stats.spill_slots);
    }
    let state = CellState {
        module,
        profile,
        machine: machine.clone(),
        artifact: art,
        sim: run.sim.clone(),
    };
    Ok((EvalRun { run, machine, ise }, state))
}

/// Phase C for one cell: the stage calls again on a warm cache, then the
/// artifact and result codecs.
fn warm_repeat(
    tc: &Toolchain,
    cell: &Cell,
    id: u32,
    st: &CellState,
    rec: &mut Recorder,
    samples: &mut Samples,
    layers: &mut Layers,
) {
    let w = &cell.workload;
    let hit = |rec: &mut Recorder, samples: &mut Samples, idx: usize, f: &mut dyn FnMut()| {
        let (_, ns) = rec.span(STAGES[idx], id, |_| f());
        samples.hit_us[idx].push(us(ns));
    };
    hit(rec, samples, 0, &mut || {
        black_box(tc.parse(&w.source).ok());
    });
    let mut optimized = None;
    hit(rec, samples, 1, &mut || {
        optimized = tc.frontend(&w.source).ok()
    });
    if let (Some(_), Some(m)) = (&st.profile, &optimized) {
        hit(rec, samples, 2, &mut || {
            black_box(tc.profile(m, &w.inputs, &w.args).ok());
        });
    }
    let guided = if tc.profile_guided {
        st.profile.as_ref()
    } else {
        None
    };
    hit(rec, samples, 3, &mut || {
        black_box(tc.compile_for(&st.module, &st.machine, guided).ok());
    });
    hit(rec, samples, 4, &mut || {
        black_box(tc.run_artifact(w, &st.machine, &st.artifact).ok());
    });

    let (bytes, ns) = rec.span("codec.artifact.encode", id, |_| st.artifact.encode_to_vec());
    samples.art_encode_us.push(us(ns));
    let (_, ns) = rec.span("codec.artifact.decode", id, |_| {
        black_box(CompiledArtifact::decode_all(&bytes).ok())
    });
    samples.art_decode_us.push(us(ns));
    layers.codec_bytes += bytes.len() as u64;
    let (bytes, ns) = rec.span("codec.simresult.encode", id, |_| st.sim.encode_to_vec());
    samples.sim_encode_us.push(us(ns));
    let (_, ns) = rec.span("codec.simresult.decode", id, |_| {
        black_box(SimResult::decode_all(&bytes).ok())
    });
    samples.sim_decode_us.push(us(ns));
    layers.codec_bytes += bytes.len() as u64;
}

/// Phase A: the workload's pass as stage calls on the session's worker
/// count, batch by batch on the sessions the untraced pass uses, one
/// `cell` span per cell evaluation. Returns (wall ns summed over batches,
/// records of the first batch, ns of every cell evaluation).
fn traced_pass(
    p: &Prepared,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    failures: &mut Vec<String>,
) -> (u64, Vec<Record>, Vec<u64>) {
    let cells: Vec<(u32, &Cell)> = p
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u32, c))
        .collect();
    let workers: Vec<std::sync::Mutex<Recorder>> = (0..THREADS)
        .map(|t| std::sync::Mutex::new(Recorder::new(epoch, t as u32, "traced_pass")))
        .collect();
    let mut wall = 0u64;
    let mut out = Vec::with_capacity(cells.len() * p.batches());
    for _ in 0..p.batches() {
        let session = p.batch_session();
        let tc = session.toolchain();
        let start = Instant::now();
        out.extend(par_map(THREADS, &cells, |worker, &(id, cell)| {
            let mut rec = workers[worker].lock().expect("one worker per recorder");
            let (record, ns) = rec.span("cell", id, |rec| {
                if p.kind == Kind::SimLong {
                    let (r, _) = rec.span("simulate", id, |_| simulate(tc, cell));
                    Record::from_run(cell.key(), &r)
                } else {
                    let r = cell_stages(tc, cell, id, rec, None).map(|(run, _)| run);
                    Record::from_eval(cell.key(), &r)
                }
            });
            (record, ns)
        }));
        wall += start.elapsed().as_nanos() as u64;
    }
    recorders.extend(
        workers
            .into_iter()
            .map(|m| m.into_inner().expect("workers joined")),
    );
    let (records, cell_ns): (Vec<Record>, Vec<u64>) = out.into_iter().unzip();
    let mut records = fold_batches(records, p.cells.len(), failures);
    records.sort_by(|a, b| a.key.cmp(&b.key));
    (wall, records, cell_ns)
}

/// Phases B and C on a fresh cache, one thread. Returns phase B's records.
fn attribute(
    p: &Prepared,
    epoch: Instant,
    recorders: &mut Vec<Recorder>,
    samples: &mut Samples,
) -> Vec<Record> {
    let session = p.session.fresh_cache();
    let tc = session.toolchain();
    let mut layers = Layers::default();
    let mut rec = Recorder::new(epoch, THREADS as u32, "attribution");
    let mut states = Vec::with_capacity(p.cells.len());
    let mut records = Vec::with_capacity(p.cells.len());
    for (i, cell) in p.cells.iter().enumerate() {
        let id = i as u32;
        let (r, _) = rec.span("cell", id, |rec| {
            cell_stages(tc, cell, id, rec, Some(&mut layers))
        });
        match r {
            Ok((run, st)) => {
                if p.kind == Kind::SimLong {
                    records.push(Record::from_run(cell.key(), &Ok(run.run)));
                } else {
                    records.push(Record::from_eval(cell.key(), &Ok(run)));
                }
                states.push(Some(st));
            }
            Err(e) => {
                records.push(Record::from_eval(cell.key(), &Err(e)));
                states.push(None);
            }
        }
    }
    recorders.push(rec);
    let mut rec = Recorder::new(epoch, THREADS as u32, "warm_repeat");
    for (i, (cell, st)) in p.cells.iter().zip(&states).enumerate() {
        if let Some(st) = st {
            let id = i as u32;
            rec.span("cell", id, |rec| {
                warm_repeat(tc, cell, id, st, rec, samples, &mut layers)
            });
        }
    }
    recorders.push(rec);
    samples.layers.push(layers);
    records.sort_by(|a, b| a.key.cmp(&b.key));
    records
}

/// Run traced iterations (each beside one untraced pass) for `seconds`.
pub fn run(p: &Prepared, seconds: f64) -> TraceOutcome {
    let epoch = Instant::now();
    let mut samples = Samples::default();
    let mut recorders = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut reference = None;
    let mut check = |what: &str, records: Vec<Record>, evaluated: u64, failures: &mut Vec<_>| {
        attempted += evaluated;
        check_pass(what, records, &mut reference, failures);
    };
    let mut iterations = 0;
    loop {
        // The untraced and the traced pass swap order every iteration, so
        // neither always inherits the allocator state the other leaves.
        for traced in [iterations % 2 == 1, iterations % 2 == 0] {
            if traced {
                let (wall, records, cell_ns) = traced_pass(p, epoch, &mut recorders, &mut failures);
                let evaluated = cell_ns.len() as u64;
                samples.traced_pass_ms.push(ms(wall));
                let busy: u64 = cell_ns.iter().sum();
                samples
                    .busy
                    .push(busy as f64 / (THREADS as f64 * wall as f64));
                samples.cell_ms.extend(cell_ns.iter().map(|&n| ms(n)));
                check("traced pass", records, evaluated, &mut failures);
            } else {
                let mut pass: Pass = p.pass();
                samples.untraced_pass_ms.push(pass.wall_s * 1e3);
                let total = pass.hits + pass.misses;
                samples.hit_ratio.push(if total == 0 {
                    0.0
                } else {
                    pass.hits as f64 / total as f64
                });
                samples
                    .resident_kib
                    .push(pass.resident_bytes as f64 / 1024.0);
                failures.append(&mut pass.extra_failures);
                check("untraced pass", pass.records, pass.evaluated, &mut failures);
            }
        }

        let records = attribute(p, epoch, &mut recorders, &mut samples);
        let evaluated = records.len() as u64;
        check("attribution pass", records, evaluated, &mut failures);
        iterations += 1;
        if epoch.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut spans = Vec::new();
    let mut dropped = 0;
    for r in recorders {
        dropped += r.dropped;
        spans.extend(r.spans);
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let (metrics, counts) = metrics(&samples);
    TraceOutcome {
        metrics,
        counts,
        spans,
        spans_dropped: dropped,
        attempted,
        failures,
        traced_iterations: iterations,
    }
}

/// Per-layer metrics from the pooled samples: per-pass totals are medians
/// over traced iterations; latencies are exact quantiles.
#[allow(clippy::type_complexity)]
fn metrics(s: &Samples) -> (Vec<(String, &'static str, f64)>, Vec<(String, usize)>) {
    let per_pass =
        |f: &dyn Fn(&Layers) -> f64| median(&s.layers.iter().map(f).collect::<Vec<f64>>());
    let mut m: Vec<(String, &'static str, f64)> = Vec::new();
    let mut counts: Vec<(String, usize)> = Vec::new();
    let mut push = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));
    push("tinyc.parse_ms", "ms", per_pass(&|l| ms(l.raw_ns[0])));
    push("ir.optimize_ms", "ms", per_pass(&|l| ms(l.raw_ns[1])));
    push("ir.profile_ms", "ms", per_pass(&|l| ms(l.raw_ns[2])));
    push("ir.insts_out", "count", per_pass(&|l| l.insts_out as f64));
    push("ise.extend_ms", "ms", per_pass(&|l| ms(l.extend_ns)));
    push(
        "ise.ops_selected",
        "count",
        per_pass(&|l| l.ops_selected as f64),
    );
    push("backend.compile_ms", "ms", per_pass(&|l| ms(l.raw_ns[3])));
    push("backend.bundles", "count", per_pass(&|l| l.bundles as f64));
    push(
        "backend.spill_slots",
        "count",
        per_pass(&|l| l.spill_slots as f64),
    );
    push("sim.prepare_ms", "ms", per_pass(&|l| ms(l.prepare_ns)));
    push("sim.run_ms", "ms", per_pass(&|l| ms(l.run_ns)));
    push(
        "sim.engine_mips",
        "Mcycles/s",
        per_pass(&|l| {
            if l.run_ns == 0 {
                0.0
            } else {
                l.run_cycles as f64 / l.run_ns as f64 * 1e3
            }
        }),
    );
    for (i, stage) in STAGES.iter().enumerate() {
        push(
            &format!("cache.{stage}.overhead_ms"),
            "ms",
            per_pass(&|l| ms(l.miss_ns[i]) - ms(l.raw_ns[i])),
        );
    }
    for (i, stage) in STAGES.iter().enumerate() {
        let name = format!("cache.{stage}.hit_us");
        push(&name, "us", quantile(&s.hit_us[i], 0.5).unwrap_or(0.0));
        counts.push((name, s.hit_us[i].len()));
    }
    push("cache.hit_ratio", "ratio", median(&s.hit_ratio));
    push("cache.resident_kib", "KiB", median(&s.resident_kib));
    for (name, v) in [
        ("codec.artifact.encode_us", &s.art_encode_us),
        ("codec.artifact.decode_us", &s.art_decode_us),
        ("codec.simresult.encode_us", &s.sim_encode_us),
        ("codec.simresult.decode_us", &s.sim_decode_us),
    ] {
        push(name, "us", median(v));
        counts.push((name.to_string(), v.len()));
    }
    push("codec.bytes", "bytes", per_pass(&|l| l.codec_bytes as f64));
    for (name, q) in [("session.cell_ms.p50", 0.5), ("session.cell_ms.p99", 0.99)] {
        push(name, "ms", quantile(&s.cell_ms, q).unwrap_or(0.0));
        counts.push((name.to_string(), s.cell_ms.len()));
    }
    push("session.busy_ratio", "ratio", median(&s.busy));
    push("trace.pass_ms", "ms", median(&s.traced_pass_ms));
    push("trace.untraced_pass_ms", "ms", median(&s.untraced_pass_ms));
    counts.push(("trace.pass_ms".to_string(), s.traced_pass_ms.len()));
    counts.push((
        "trace.untraced_pass_ms".to_string(),
        s.untraced_pass_ms.len(),
    ));
    (m, counts)
}
