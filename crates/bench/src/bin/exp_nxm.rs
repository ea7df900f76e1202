//! E9: the full N x M validation grid (every preset of both target kinds
//! x every workload), run twice to report what the artifact cache saves
//! on the warm pass.
//!
//! The `[timing]` line reports absolute numbers for both passes:
//! **stage time** (the summed `stage.*.self_ns` histograms: every stage
//! call's own wall time, hits included, Simulate broken out — a warm rerun
//! of an identical grid skips the cycle-level simulation too and replays
//! byte-identical `SimResult`s) and grid wall time. With `ASIP_CACHE_DIR`
//! set, the *first* pass of a repeat invocation is already disk-warm (the
//! per-tier summary shows the disk hits, and the stage time is what
//! loading and decoding them cost); within one process the second pass is
//! memory-warm. Grid cells are deterministic either way — only the
//! `[timing]`/`[session]` lines vary between runs.

use asip_core::StageKind;
use std::time::Instant;

/// Stage self time recorded so far in this process, in milliseconds: all
/// stages, and the Simulate stage alone.
fn stage_ms() -> (f64, f64) {
    let snap = asip_obs::snapshot();
    let ms = |stage: StageKind| {
        snap.histogram(&format!("stage.{}.self_ns", stage.name()))
            .map_or(0.0, |h| h.sum_ns as f64 / 1e6)
    };
    (
        StageKind::ALL.iter().map(|&s| ms(s)).sum(),
        ms(StageKind::Simulate),
    )
}

fn main() {
    // When spawned with --worker (by the shard executor below), this
    // process becomes a protocol worker instead of a coordinator.
    asip_serve::try_worker_main();

    let machines = asip_isa::MachineDescription::all_presets();
    let workloads = asip_workloads::all();

    // One knob: with ASIP_SHARDS > 1 (or an explicit ShardPlan) the same
    // grid fans out over worker processes sharing ASIP_CACHE_DIR; cells
    // are byte-identical either way, so the report below is unchanged.
    if let asip_serve::ShardMode::Sharded(n) = asip_serve::ShardPlan::new().mode() {
        let grid = asip_serve::run_grid(
            asip_bench::session(),
            &machines,
            &workloads,
            &asip_serve::ShardPlan::new(),
        )
        .expect("sharded grid completes");
        println!("{grid}");
        println!("[shards] grid executed over {n} worker processes");
        return;
    }

    let session = asip_bench::session();

    let t0 = Instant::now();
    println!("{}", asip_bench::fit::nxm_grid(&machines, &workloads));
    let wall1 = t0.elapsed();
    let (stage1, sim1) = stage_ms();

    let t1 = Instant::now();
    let warm_grid = asip_core::nxm::run_grid(session, &machines, &workloads);
    let wall2 = t1.elapsed();
    let (stage2, sim2) = stage_ms();
    let (stage2, sim2) = (stage2 - stage1, sim2 - sim1);
    assert!(warm_grid.all_pass(), "warm pass must reproduce the grid");

    println!(
        "[timing] first -> second pass: stage time {stage1:.1}ms -> {stage2:.1}ms, of which \
         simulate {sim1:.1}ms -> {sim2:.1}ms; grid wall {:.3}s -> {:.3}s",
        wall1.as_secs_f64(),
        wall2.as_secs_f64()
    );
    asip_bench::finish();
}
