//! Overhead of the observability layer (`asip_obs`): the cost of one
//! span site and one metric update, and the end-to-end impact of span
//! recording on the hot simulation path.
//!
//! Run with `cargo bench -p asip_bench --bench obs_overhead`. The
//! acceptance criterion is that the **disabled** recorder is invisible:
//! a span site with recording off is a single relaxed atomic load, so
//! its cost per engine run must stay under 2% of the run itself (the
//! summary line at the end prints the measured ratio).

use asip_backend::{compile_module, BackendOptions};
use asip_isa::MachineDescription;
use asip_sim::{SimOptions, Simulator};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;

static BENCH_COUNTER: asip_obs::Counter = asip_obs::Counter::new("bench.obs.counter");
static BENCH_HIST: asip_obs::Histogram = asip_obs::Histogram::new("bench.obs.hist");

/// Time `f` until ~0.3s of wall time has accumulated; returns ns/call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if start.elapsed().as_secs_f64() > 0.3 && iters >= 10 {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// ns/iter for the primitive sites through the criterion shim: a span
/// guard with recording off and on, a counter bump, a histogram sample.
fn bench_sites(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs-sites");
    g.sample_size(20);
    asip_obs::set_trace_path(None);
    g.bench_function("span-disabled", |b| {
        b.iter(|| black_box(asip_obs::span("bench", "probe")))
    });
    g.bench_function("counter-add", |b| b.iter(|| BENCH_COUNTER.add(1)));
    g.bench_function("histogram-record", |b| {
        b.iter(|| BENCH_HIST.record(black_box(1234)))
    });
    asip_obs::set_trace_path(Some(std::env::temp_dir().join("asip-obs-overhead.json")));
    g.bench_function("span-enabled", |b| {
        b.iter(|| black_box(asip_obs::span("bench", "probe")))
    });
    asip_obs::set_trace_path(None);
    asip_obs::clear_events();
    g.finish();
}

/// The headline number: one simulation as a Simulate-stage miss makes it
/// — build the engine, run it once (the hottest span sites in the
/// pipeline) — with span recording off vs on, plus the measured share of
/// the disabled-site cost in one run.
fn bench_hot_path(_c: &mut Criterion) {
    let tc = asip_bench::session().toolchain();
    let w = asip_workloads::by_name("crc32").unwrap();
    let module = tc.frontend(&w.source).unwrap();
    let m = MachineDescription::ember4();
    let prog = compile_module(&module, &m, None, &BackendOptions::default())
        .unwrap()
        .program;
    let run = || {
        let mut sim = Simulator::new(&m, &prog, SimOptions::default()).unwrap();
        for (name, data) in &w.inputs {
            sim.write_global(name, data);
        }
        black_box(sim.run(&w.args).unwrap().cycles);
    };

    asip_obs::set_trace_path(None);
    let disabled_ns = ns_per_call(run);
    asip_obs::set_trace_path(Some(std::env::temp_dir().join("asip-obs-overhead.json")));
    let enabled_ns = ns_per_call(run);
    asip_obs::set_trace_path(None);
    asip_obs::clear_events();

    let site_ns = ns_per_call(|| {
        black_box(asip_obs::span("bench", "probe"));
    });
    println!("\nobs overhead on the hot simulation path (crc32/ember4, block engine)");
    println!("  recording off: {disabled_ns:.0} ns/run");
    println!(
        "  recording on:  {enabled_ns:.0} ns/run ({:+.2}%)",
        (enabled_ns / disabled_ns - 1.0) * 100.0
    );
    println!(
        "  disabled span site: {site_ns:.1} ns = {:.4}% of one run (acceptance: < 2%)\n",
        site_ns / disabled_ns * 100.0
    );
}

criterion_group!(obs_overhead, bench_sites, bench_hot_path);
criterion_main!(obs_overhead);
