//! E10: the evaluation service — run the N×M grid through the shard
//! executor and verify it is byte-identical with the in-process path.
//!
//! Spawned with `--worker`, this binary becomes a protocol worker (the
//! shard executor spawns copies of itself). Otherwise it runs the grid
//! under the requested plan and prints grep-able summary lines:
//!
//! ```text
//! exp_serve [--shards N] [--small] [--kill-one]
//! ```
//!
//! * `--shards N` — explicit shard count (overrides `ASIP_SHARDS`; `0`/`1`
//!   mean local).
//! * `--small` — a reduced 2×3 grid for smoke runs.
//! * `--kill-one` — kill worker 0 once the pool is up, before any cell is
//!   dispatched; its cells must fail over to the survivors and the grid
//!   must still complete (the resilience line then reads
//!   `redispatched > 0`).
//!
//! The `[serve] grid digest:` line is a checksum over the codec-encoded,
//! request-ordered outcomes — two invocations (local vs sharded, or
//! sharded with a worker killed) must print the same digest.

use asip_core::nxm::Grid;
use asip_core::session::{EvalOutcome, EvalRequest};
use asip_isa::codec::{fnv1a, Codec, FNV1A_BASIS};
use asip_serve::shard::{format_shard_table, run_sharded_metrics};
use asip_serve::{ShardMode, ShardPlan, WorkerPool};

/// FNV-1a over the request-ordered encoded outcomes: the byte-identity
/// digest CI compares across execution modes.
fn grid_digest(outcomes: &[EvalOutcome]) -> u64 {
    outcomes
        .iter()
        .fold(FNV1A_BASIS, |h, out| fnv1a(h, &out.encode_to_vec()))
}

fn main() {
    asip_serve::try_worker_main();

    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let kill_one = args.iter().any(|a| a == "--kill-one");
    let mut plan = ShardPlan::new();
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        let n: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--shards takes a count");
        plan = plan.shards(n);
    }

    let machines = if small {
        vec![
            asip_isa::MachineDescription::ember1(),
            asip_isa::MachineDescription::ember2(),
        ]
    } else {
        asip_isa::MachineDescription::all_presets()
    };
    let workloads = if small {
        asip_workloads::all().into_iter().take(3).collect()
    } else {
        asip_workloads::all()
    };
    let reqs = EvalRequest::grid(&machines, &workloads);

    let (mode_name, outcomes) = match plan.mode() {
        ShardMode::Local => {
            println!("[serve] mode: local");
            ("local", asip_bench::session().eval_batch(&reqs))
        }
        ShardMode::Sharded(n) => {
            println!("[serve] mode: sharded over {n} workers");
            let exe = std::env::current_exe().expect("current exe");
            let mut pool = WorkerPool::spawn(&exe, &[], &[], n).expect("workers spawn");
            if kill_one {
                pool.kill(0);
                println!("[serve] killed worker 0 before dispatch");
            }
            let addrs: Vec<String> = pool.addrs().to_vec();
            let session = asip_bench::session();
            let eval_local = |batch: &[EvalRequest]| session.eval_batch(batch);
            let run_plan = plan.clone().retries(3);
            let (outcomes, metrics) =
                run_sharded_metrics(&addrs, &reqs, &run_plan, Some(&eval_local))
                    .expect("sharded grid completes");
            print!("{}", format_shard_table(&metrics));
            // Coordinator-side resilience tally, grep-able by the chaos CI
            // job: nonzero retries/faults prove the injection was live.
            let snap = asip_obs::snapshot();
            let faults: u64 = snap
                .counters
                .iter()
                .filter(|c| c.name.starts_with("serve.faults."))
                .map(|c| c.value)
                .sum();
            println!(
                "[serve] resilience: retries={} timeouts={} quarantined={} revived={} local-fallback={} faults={} redispatched={}",
                snap.counter("serve.retries"),
                snap.counter("serve.timeouts"),
                snap.counter("serve.shard.quarantined"),
                snap.counter("serve.shard.revived"),
                snap.counter("serve.shard.local_fallback"),
                faults,
                snap.counter("serve.redispatched"),
            );
            let disk_hits: u64 = metrics.iter().flatten().map(|m| m.cache.disk.hits).sum();
            println!("[serve] disk hits across workers: {disk_hits}");
            pool.shutdown();
            ("sharded", outcomes)
        }
    };

    let grid = Grid::from_outcomes(&machines, &workloads, outcomes.clone(), 1);
    println!("{grid}");
    println!(
        "[serve] grid digest: {:016x} ({} cells, {} failures, {mode_name})",
        grid_digest(&outcomes),
        outcomes.len(),
        grid.failures()
    );
    // In sharded mode the session is worker-side; the coordinator's own
    // summary is near-empty, but finish() still flushes coordinator spans
    // (shard round-trips, frame decodes) when tracing is on.
    asip_bench::finish();
}
