//! asipbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path asipbench/Cargo.toml -- \
//!     --workload <grid_cold|grid_warm|dse_ise|sim_long|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the workload is set up,
//! then passes run for `--seconds`; `setup_s` is the median of set-ups
//! timed in fresh processes of this program spread over the run. `--trace 1` is a separate run that reports the per-layer
//! metrics (see `traced.rs`). Every pass is checked: each cell's golden
//! output, and a digest of every cell's outcome that must equal the first
//! pass's. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a human-readable
//! report goes to standard error, and the full record (configuration,
//! sample counts, digests) plus the traced run's spans are written under
//! `asipbench/out/`. `--workload all` runs every workload, each in a
//! process of its own, untraced and traced. The exit code is non-zero when
//! any check fails.

mod stats;
mod traced;
mod workloads;

use stats::{geomean, json_num, json_str, median, tail};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{pinned_session, Kind, Prepared, THREADS};

/// How many times each run sets its workload up; `setup_s` is the median.
const SETUP_REPS: usize = 7;

/// Fewest measured passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only time one set-up and print its seconds (the child processes
    /// `setup_s` is measured in).
    setup_only: bool,
}

fn parse_flag(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad {flag} {value}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => args.trace = parse_flag(&flag, &value)?,
            "--setup-only" => args.setup_only = parse_flag(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Kind::parse(&args.workload).is_none() {
        return Err(format!("unknown --workload {:?}", args.workload));
    }
    Ok(args)
}

/// Remove every `ASIP_*` variable from this process's environment, so the
/// measured program cannot inherit a cache directory, shard or fault plan,
/// engine, threshold, thread count, byte budget or trace file. Returns the
/// names removed.
fn scrub_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ASIP_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// The effective configuration of the measured session, as `key=value`.
fn configuration(scrubbed: &[String]) -> Vec<(String, String)> {
    let s = pinned_session();
    let tc = s.toolchain();
    vec![
        ("threads".into(), s.threads().to_string()),
        ("engine".into(), tc.sim.engine.name().to_string()),
        ("sb_threshold".into(), tc.sim.sb_threshold.to_string()),
        ("cache_bytes".into(), s.cache().byte_budget().to_string()),
        (
            "disk_tier".into(),
            s.cache().disk_dir().is_some().to_string(),
        ),
        ("profile_guided".into(), tc.profile_guided.to_string()),
        ("spans".into(), asip_obs::enabled().to_string()),
        ("shards".into(), "none".into()),
        ("faults".into(), "none".into()),
        (
            "host_parallelism".into(),
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_default(),
        ),
        ("scrubbed_env".into(), scrubbed.join(",")),
    ]
}

/// One metric of the result line: (name, unit, value).
type Metric = (String, &'static str, f64);

struct Outcome {
    metrics: Vec<Metric>,
    /// Sample counts and other context printed beside the metrics.
    notes: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
}

/// Time one set-up of `kind` in a fresh process of this program.
fn setup_in_child(kind: Kind, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(["--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .ok()
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up process failed: {}", out.status))
}

/// The untraced run: one set-up, then passes for `seconds`. `setup_s` is
/// measured in `SETUP_REPS` fresh processes of this program, started at
/// even intervals of the run: each is a cold start, set-ups and passes see
/// the same host conditions, and this process's peak memory stays that of
/// one set-up plus its passes.
fn timed(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let p = Prepared::setup(kind, seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut walls = Vec::new();
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut reference = None;
    // Pass time only: set-up processes do not use up `seconds`.
    let mut measured = 0.0f64;
    while walls.len() < MIN_PASSES || measured < seconds {
        if setups.len() < SETUP_REPS
            && measured >= seconds * setups.len() as f64 / SETUP_REPS as f64
        {
            match setup_in_child(kind, seed) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    failures.push(e);
                    setups.push(f64::NAN);
                }
            }
        }
        let started = Instant::now();
        let mut pass = p.pass();
        measured += started.elapsed().as_secs_f64();
        walls.push(pass.wall_s);
        attempted += pass.evaluated;
        failures.append(&mut pass.extra_failures);
        let what = format!("pass {}", walls.len());
        workloads::check_pass(&what, pass.records, &mut reference, &mut failures);
    }
    let batches = p.batches();
    drop(p);
    let first = reference.expect("at least one pass");
    let digest = workloads::digest(&first);
    // Per pass, every batch counted.
    let cells = (first.len() * batches) as f64;
    let cycles = first.iter().map(|r| r.cycles).sum::<u64>() * batches as u64;
    let pass_s = median(&walls);
    let (tail_s, tail_pct) = tail(&walls);
    let metrics: Vec<Metric> = [
        ("setup_s", "s", median(&setups)),
        ("pass_s", "s", pass_s),
        ("pass_s_tail", "s", tail_s),
        ("cells_per_s", "1/s", cells / pass_s),
        ("sim_mips", "Mcycles/s", cycles as f64 / pass_s / 1e6),
        ("peak_rss_mb", "MiB", stats::peak_rss_mb()),
        (
            "sim_cycles_geomean",
            "cycles",
            geomean(first.iter().map(|r| r.cycles as f64)),
        ),
        (
            "code_bytes_geomean",
            "bytes",
            geomean(first.iter().map(|r| f64::from(r.code_bytes))),
        ),
    ]
    .into_iter()
    .map(|(n, u, v)| (n.to_string(), u, v))
    .collect();
    let notes = vec![
        format!(
            "setup_s: median of {} set-ups, each in a fresh process: {setups:?}",
            setups.len()
        ),
        format!(
            "pass_s: median of {} passes; pass_s_tail is p{tail_pct:.1} ({} passes beyond it)",
            walls.len(),
            walls.iter().filter(|&&w| w > tail_s).count()
        ),
        format!(
            "cells_per_s: {cells} cells / {pass_s:.6} s; sim_mips: {cycles} cycles / {pass_s:.6} s"
        ),
        format!(
            "fail_ratio: {} failed / {attempted} attempted cells",
            failures.len()
        ),
        format!("digest: {digest:016x} (every pass must match)"),
        first
            .iter()
            .min_by_key(|r| r.cycles)
            .map_or(String::new(), |r| {
                format!("fewest simulated cycles: {} on {}", r.cycles, r.key)
            }),
    ];
    Outcome {
        metrics,
        notes,
        attempted,
        failures,
    }
}

/// The traced run: per-layer metrics, spans written out at exit.
fn traced_run(kind: Kind, seed: u64, seconds: f64, out_dir: &std::path::Path) -> Outcome {
    let p = Prepared::setup(kind, seed);
    let t = traced::run(&p, seconds);
    let spans_file = out_dir.join(format!("spans-{}.json", kind.name()));
    let mut notes = vec![format!(
        "{} traced iterations; {} spans ({} dropped) written to {}",
        t.traced_iterations,
        t.spans.len(),
        t.spans_dropped,
        spans_file.display()
    )];
    if let Err(e) = std::fs::write(&spans_file, spans_json(&t.spans)) {
        notes.push(format!("span file not written: {e}"));
    }
    notes.extend(t.counts.iter().map(|(m, n)| format!("{m}: {n} samples")));
    let get = |name: &str| t.metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);
    let (traced_ms, untraced_ms) = (get("trace.pass_ms"), get("trace.untraced_pass_ms"));
    notes.push(format!(
        "tracing overhead: traced pass {traced_ms:.3} ms vs untraced pass {untraced_ms:.3} ms \
         ({:+.1}%)",
        (traced_ms / untraced_ms - 1.0) * 100.0
    ));
    Outcome {
        metrics: t.metrics,
        notes,
        attempted: t.attempted,
        failures: t.failures,
    }
}

/// Chrome trace-event JSON of the recorded spans.
fn spans_json(spans: &[traced::SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{},\"parent\":{parent},\"cell\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            json_str(s.name),
            json_str(s.phase),
            s.tid,
            json_num(s.start_ns as f64 / 1e3),
            json_num((s.end_ns - s.start_ns) as f64 / 1e3),
            s.id,
            s.cell,
        );
    }
    out.push_str("\n]}\n");
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failures.len(),
        metrics.join(", ")
    )
}

/// `--workload all`: every workload untraced and traced, each in a process
/// of its own. Each child's result line is echoed with its workload; the
/// exit code is non-zero if any child failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("asipbench: cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0;
    for kind in Kind::ALL {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let line = match &out {
                Ok(o) => String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string(),
                Err(e) => format!("not run: {e}"),
            };
            if !out.is_ok_and(|o| o.status.success()) {
                failed += 1;
            }
            println!("{} trace={trace}: {line}", kind.name());
        }
    }
    println!("all: {failed} of {} runs failed", 2 * Kind::ALL.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asipbench: {e}");
            eprintln!(
                "usage: asipbench --workload <grid_cold|grid_warm|dse_ise|sim_long|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scrubbed = scrub_environment();
    if args.workload == "all" {
        return run_all(&args);
    }
    let kind = Kind::parse(&args.workload).expect("validated by parse_args");
    if args.setup_only {
        let t = Instant::now();
        let p = Prepared::setup(kind, args.seed);
        println!("{}", t.elapsed().as_secs_f64());
        drop(p);
        return ExitCode::SUCCESS;
    }
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("asipbench: cannot create {}: {e}", dir.display());
    }
    let config = configuration(&scrubbed);
    let outcome = if args.trace {
        traced_run(kind, args.seed, args.seconds, &dir)
    } else {
        timed(kind, args.seed, args.seconds)
    };

    let mut report = format!(
        "== asipbench {} seed={} seconds={} trace={} ({} threads)\n",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS
    );
    let config_line: Vec<String> = config.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(report, "config: {}", config_line.join(" "));
    for (name, unit, v) in &outcome.metrics {
        let _ = writeln!(report, "  {name:<28} {v:>16.6} {unit}");
    }
    for n in &outcome.notes {
        let _ = writeln!(report, "  # {n}");
    }
    for f in outcome.failures.iter().take(20) {
        let _ = writeln!(report, "  FAIL {f}");
    }
    eprint!("{report}");

    let line = result_json(&outcome);
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"config\": {{{}}}, \
         \"notes\": [{}], \"result\": {line}}}\n",
        json_str(kind.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        config
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
        outcome
            .notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let record_file = dir.join(format!(
        "{}-trace{}.json",
        kind.name(),
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record_file, record) {
        eprintln!("asipbench: cannot write {}: {e}", record_file.display());
    }
    println!("{line}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
