//! # asip-bench — the experiment harness
//!
//! One function per table/figure of the reproduction (see DESIGN.md §5 and
//! EXPERIMENTS.md): each regenerates its table as text and is wrapped by a
//! binary (`exp_*`) and exercised by the test suite on reduced inputs.
//!
//! All experiments share one process-wide [`Session`] (see [`session`]):
//! every `exp_*` binary's sweeps reuse the same memory-bounded artifact
//! cache and worker pool, and print the cache hit/miss/eviction summary
//! ([`session_summary`]) at exit.

#![warn(missing_docs)]

pub mod drift;
pub mod econ_exp;
pub mod fit;
pub mod hw;
pub mod util;

pub use util::{geomean, Table};

use asip_core::Session;
use std::sync::OnceLock;

static SESSION: OnceLock<Session> = OnceLock::new();

/// The process-wide shared [`Session`] every experiment evaluates through.
///
/// Built once with the default configuration (memory-tier budget from
/// `ASIP_CACHE_BYTES`, persistent disk tier from `ASIP_CACHE_DIR` when
/// set, worker count from `ASIP_GRID_THREADS`); all experiment functions
/// in this crate batch their (workload × machine) cells through it, so
/// repeated sweeps in one binary never recompile a front half twice — and
/// with a cache directory configured, neither does the next *process*.
pub fn session() -> &'static Session {
    SESSION.get_or_init(|| Session::builder().build())
}

/// Per-tier summary of the shared session's cache behavior, printed by the
/// `exp_*` binaries at exit: the serving simulation engine, stage hit/miss
/// counters (the memoized Simulate stage included), the
/// simulation-throughput line, plus one line per cache tier (memory, and
/// disk when `ASIP_CACHE_DIR` is active).
///
/// Throughput is the session's simulated cycles over the summed wall time
/// of the simulation runs that produced them (the `sim.run_ns`
/// histogram). Program preparation, cache probes, decodes and stores on
/// either tier are outside it, so a disk tier leaves the figure alone.
pub fn session_summary() -> String {
    use asip_core::StageKind;
    let s = session();
    let stats = s.cache_stats();
    let snap = asip_obs::snapshot();
    let self_ns = |stage: StageKind| snap.histogram(&format!("stage.{}.self_ns", stage.name()));
    let sim_cycles = s.cache().sim_cycles();
    let sim_secs = snap
        .histogram("sim.run_ns")
        .map_or(0.0, |h| h.sum_ns as f64 / 1e9);
    let mips = if sim_secs > 0.0 {
        sim_cycles as f64 / sim_secs / 1e6
    } else {
        0.0
    };
    let mut out = format!(
        "[session] {} workers | engine {} | cache budget {} KiB | {} evictions, {} KiB resident\n\
         [session] stages: parse {}/{} optimize {}/{} profile {}/{} compile {}/{} \
         simulate {}/{} (hits/misses)\n\
         [session] simulate throughput: {} cycles in {:.3}s of simulation runs ({:.0} MIPS; \
         cache hits re-measure nothing)\n\
         [session] mem tier: {}",
        s.threads(),
        s.toolchain().sim.engine,
        s.cache().byte_budget() / 1024,
        stats.evictions,
        stats.resident_bytes / 1024,
        stats.parse.hits,
        stats.parse.misses,
        stats.optimize.hits,
        stats.optimize.misses,
        stats.profile.hits,
        stats.profile.misses,
        stats.compile.hits,
        stats.compile.misses,
        stats.simulate.hits,
        stats.simulate.misses,
        sim_cycles,
        sim_secs,
        mips,
        stats.mem,
    );
    if stats.has_disk {
        let dir = s
            .cache()
            .disk_dir()
            .map(|d| d.display().to_string())
            .unwrap_or_default();
        out.push_str(&format!("\n[session] disk tier: {} ({dir})", stats.disk));
    }
    let stage_lat: Vec<String> = StageKind::ALL
        .iter()
        .filter_map(|&stage| {
            let h = self_ns(stage)?;
            if h.count == 0 {
                return None;
            }
            Some(format!(
                "{} n={} p50={}µs p99={}µs",
                stage.name(),
                h.count,
                h.quantile_ns(0.5) / 1_000,
                h.quantile_ns(0.99) / 1_000,
            ))
        })
        .collect();
    if !stage_lat.is_empty() {
        out.push_str(&format!(
            "\n[session] stage latency (self time): {}",
            stage_lat.join(" | ")
        ));
    }
    // Superblock trace activity (nonzero once the block engine promoted a
    // hot loop): formation and dispatch volume, plus how often traces bailed
    // sideways (side exit: the dominant successor prediction missed) or
    // never entered (fallback: an entry guard failed).
    let formed = snap.counter("sim.trace.formed");
    if formed > 0 {
        let entries = snap.counter("sim.trace.entries");
        let side_exits = snap.counter("sim.trace.side_exits");
        let fallbacks = snap.counter("sim.trace.fallbacks");
        #[allow(clippy::cast_precision_loss)]
        let side_pct = if entries == 0 {
            0.0
        } else {
            100.0 * side_exits as f64 / entries as f64
        };
        out.push_str(&format!(
            "\n[session] superblocks: {formed} traces formed, {entries} entries, \
             {side_exits} side exits ({side_pct:.1}%), {fallbacks} guard fallbacks"
        ));
    }
    let (recorded, dropped) = asip_obs::span_totals();
    if recorded > 0 {
        out.push_str(&format!(
            "\n[session] spans: {recorded} recorded, {dropped} dropped"
        ));
    }
    out
}

/// The shared epilogue of every `exp_*` binary: print the
/// [`session_summary`] and, when tracing is configured (the builder knob
/// or `ASIP_TRACE`), flush the recorded spans to the Chrome trace file.
pub fn finish() {
    println!("{}", session_summary());
    match asip_obs::flush_trace() {
        Ok(Some((path, events))) => {
            println!("[trace] wrote {events} span events to {}", path.display());
        }
        Ok(None) => {}
        Err(e) => eprintln!("[trace] write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_session_is_one_instance() {
        let a = session() as *const Session;
        let b = session() as *const Session;
        assert_eq!(a, b);
        let summary = session_summary();
        assert!(summary.contains("workers"));
        assert!(summary.contains("engine"));
        assert!(summary.contains("simulate throughput"));
    }
}
