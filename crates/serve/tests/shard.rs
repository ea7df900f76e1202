//! End-to-end shard executor tests: a grid fanned out over worker
//! processes sharing one `ASIP_CACHE_DIR` must come back request-ordered
//! and byte-identical with the single-process path — including when a
//! worker is killed — and a fresh worker fleet on the same cache directory
//! must see cross-process disk hits.

use asip_core::cache::CACHE_DIR_ENV;
use asip_core::session::{EvalOutcome, EvalRequest, Session};
use asip_isa::codec::Codec;
use asip_serve::{run_sharded, run_sharded_metrics, Client, ServeError, ShardPlan, WorkerPool};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Held by the tests whose workers die, so one test's re-sent cells never
/// land in another's reading of the process-wide `serve.redispatched`.
static DEAD_WORKERS: Mutex<()> = Mutex::new(());

fn worker_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_asip_serve_worker"))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asip-serve-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_grid() -> Vec<EvalRequest> {
    let machines = [
        asip_isa::MachineDescription::ember1(),
        asip_isa::MachineDescription::ember2(),
    ];
    let workloads: Vec<_> = asip_workloads::all().into_iter().take(3).collect();
    EvalRequest::grid(&machines, &workloads)
}

fn encode_all(outs: &[EvalOutcome]) -> Vec<Vec<u8>> {
    outs.iter().map(Codec::encode_to_vec).collect()
}

fn spawn_pool(n: usize, cache_dir: &Path) -> WorkerPool {
    let envs = [(CACHE_DIR_ENV.to_string(), cache_dir.display().to_string())];
    WorkerPool::spawn(worker_bin(), &[], &envs, n).expect("workers spawn")
}

#[test]
fn sharded_grid_is_byte_identical_with_local() {
    let reqs = small_grid();
    let local = Session::builder().threads(2).build().eval_batch(&reqs);
    let local_bytes = encode_all(&local);

    let cache_dir = fresh_dir("identity");
    let pool = spawn_pool(2, &cache_dir);
    let sharded =
        run_sharded(pool.addrs(), &reqs, &ShardPlan::new()).expect("sharded run completes");
    assert_eq!(
        encode_all(&sharded),
        local_bytes,
        "sharded outcomes must be request-ordered and byte-identical with local"
    );
    pool.shutdown();

    // A fresh fleet on the same cache directory re-runs the grid entirely
    // from the disk tier another process populated.
    let pool = spawn_pool(2, &cache_dir);
    let rerun = run_sharded(pool.addrs(), &reqs, &ShardPlan::new()).expect("second pass completes");
    assert_eq!(
        encode_all(&rerun),
        local_bytes,
        "disk-served pass identical"
    );
    let disk_hits: u64 = pool
        .addrs()
        .iter()
        .map(|addr| {
            let mut c = Client::connect(addr).expect("worker reachable");
            c.metrics().expect("metrics").cache.disk.hits
        })
        .sum();
    assert!(
        disk_hits > 0,
        "the fresh fleet must hit artifacts persisted by the first fleet"
    );
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn coordinator_reuses_worker_connections() {
    // One worker, a grid dispatch plus the metrics scrape: with pooling
    // the whole exchange rides a single TCP connection, so the worker's
    // own scrape (served over that same connection) must report exactly
    // one accepted connection. The per-RPC-connect coordinator this
    // replaces would report two (and one per extra round besides).
    let reqs = small_grid();
    let local_bytes = encode_all(&Session::builder().threads(2).build().eval_batch(&reqs));

    let cache_dir = fresh_dir("pooling");
    let pool = spawn_pool(1, &cache_dir);
    let (sharded, metrics) = run_sharded_metrics(pool.addrs(), &reqs, &ShardPlan::new(), None)
        .expect("sharded run completes");
    assert_eq!(
        encode_all(&sharded),
        local_bytes,
        "pooled dispatch must not perturb order or bytes"
    );
    let m = &metrics[0].as_ref().expect("live worker scrapes").metrics;
    assert_eq!(
        m.counter("serve.connections"),
        1,
        "dispatch and metrics scrape must share one pooled connection"
    );
    assert!(
        m.counter("serve.requests") >= 1,
        "the eval RPC rode the pooled connection"
    );
    // The fresh worker evaluated every cell, each timed by `Session::eval`:
    // the histogram behind the shard table's latency column.
    let cell_ns = m.histogram("cell.eval_ns").expect("cell latency recorded");
    assert_eq!(cell_ns.count, reqs.len() as u64);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn killed_worker_cells_are_redispatched() {
    let _serial = DEAD_WORKERS.lock().unwrap_or_else(|e| e.into_inner());
    let reqs = small_grid();
    let local_bytes = encode_all(&Session::builder().threads(2).build().eval_batch(&reqs));

    let cache_dir = fresh_dir("failover");
    let mut pool = spawn_pool(2, &cache_dir);
    // Kill shard 0 outright; its cells must fail over to the survivor.
    pool.kill(0);
    let redispatched = || asip_obs::snapshot().counter("serve.redispatched");
    let before = redispatched();
    let sharded = run_sharded(pool.addrs(), &reqs, &ShardPlan::new())
        .expect("survivor absorbs the dead shard");
    assert_eq!(
        encode_all(&sharded),
        local_bytes,
        "failover must not perturb order or bytes"
    );
    // The first round deals cells alternately to shards 0 and 1. Shard
    // 0's refused connection quarantines it at once, so each of its cells
    // goes out again exactly once, to the survivor.
    let held = reqs.len().div_ceil(2);
    assert_eq!(
        redispatched() - before,
        held as u64,
        "the dead shard's {held} cells went out again in one later round"
    );
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn all_workers_dead_is_typed_shard_failed() {
    let _serial = DEAD_WORKERS.lock().unwrap_or_else(|e| e.into_inner());
    let reqs = small_grid();
    let cache_dir = fresh_dir("dead");
    let mut pool = spawn_pool(2, &cache_dir);
    pool.kill(0);
    pool.kill(1);
    match run_sharded(pool.addrs(), &reqs, &ShardPlan::new()) {
        Err(ServeError::ShardFailed { cells, .. }) => {
            assert_eq!(cells, reqs.len(), "no cell silently dropped")
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
