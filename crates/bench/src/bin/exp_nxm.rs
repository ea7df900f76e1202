//! E9: the full N x M validation grid (every preset of both target kinds
//! x every workload), run twice to report what the artifact cache saves
//! on the warm pass.
//!
//! The `[timing]` line reports absolute numbers for both passes:
//! **pipeline compute time** (per-stage execution from the cache's
//! timers, Simulate included — a warm rerun of an identical grid skips
//! the cycle-level simulation too and replays byte-identical
//! `SimResult`s) and grid wall time. With `ASIP_CACHE_DIR` set, the
//! *first* pass of a repeat invocation is already disk-warm (the per-tier
//! summary shows the disk hits); within one process the second pass is
//! memory-warm. Grid cells are deterministic either way — only the
//! `[timing]`/`[session]` lines vary between runs.

use asip_core::StageKind;
use std::time::Instant;

/// Per-stage execution milliseconds recorded so far, split into the
/// cacheable front half and the Simulate stage.
fn compute_ms(session: &asip_core::Session) -> (f64, f64) {
    let t = session.stage_times();
    let front: f64 = StageKind::FRONT_HALF
        .iter()
        .map(|&s| t.get(s) as f64 / 1e6)
        .sum();
    (front, t.get(StageKind::Simulate) as f64 / 1e6)
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
    let (front1, sim1) = compute_ms(session);

    let t1 = Instant::now();
    let warm_grid = asip_core::nxm::run_grid(session, &machines, &workloads);
    let wall2 = t1.elapsed();
    let (front2, sim2) = compute_ms(session);
    let (front2, sim2) = (front2 - front1, sim2 - sim1);
    assert!(warm_grid.all_pass(), "warm pass must reproduce the grid");

    println!(
        "[timing] first -> second pass: compute {:.1}ms -> {:.1}ms, of which simulate \
         {sim1:.1}ms -> {sim2:.1}ms; grid wall {:.3}s -> {:.3}s",
        front1 + sim1,
        front2 + sim2,
        wall1.as_secs_f64(),
        wall2.as_secs_f64()
    );
    asip_bench::finish();
}
