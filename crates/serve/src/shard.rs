//! The multi-process shard executor: a coordinator that partitions a batch
//! of cells deterministically across N worker servers, merges
//! request-ordered results byte-identically with the single-process path,
//! and survives killed, hung, saturated or fault-injected workers.
//!
//! # Partition and merge
//!
//! Cell `i` of the batch goes to shard `i % N` — a pure function of the
//! request order, so two runs of the same grid shard identically. Outcomes
//! land in a per-request slot; the merged vector is request-ordered no
//! matter which worker (or which retry) computed each cell. Workers share
//! one `ASIP_CACHE_DIR`, so cross-shard duplicate work degrades into disk
//! hits, and every cell is a deterministic function of its request — a
//! re-dispatched cell returns the same bytes the dead worker would have.
//!
//! Each round sends every pending cell to exactly one shard and joins all
//! of its dispatches before the next round starts, so a re-dispatched cell
//! reaches a worker only after its earlier dispatch has returned; the
//! workers' artifact caches serve such repeats.
//!
//! # Failure model
//!
//! A worker that dies, hangs past its deadline, or stays busy past the
//! round's [`RetryPolicy`] budget fails its whole current chunk; those
//! cells return to the pending pool and the next round re-partitions them
//! across the healthy shards. Failures are tracked per shard:
//!
//! * **Backoff** — busy retries sleep a seeded
//!   exponential-backoff-with-jitter ([`RetryPolicy::backoff`]); the jitter
//!   is a pure function of the seed, so a chaos run's retry schedule is
//!   reproducible.
//! * **Quarantine** — after [`ShardPlan::quarantine_after`] consecutive
//!   chunk failures a shard leaves the rotation (`serve.shard.quarantined`),
//!   at once if its connection was refused (no worker listens there); it
//!   is re-probed with a `Ping` at each round start, and a revived worker
//!   (`serve.shard.revived`) rejoins the partition.
//! * **Local fallback** — when every shard is quarantined and re-probing
//!   revives none, a caller-supplied local evaluator (see
//!   [`run_sharded_with`]; [`run_grid`] passes its session) completes the
//!   pending cells in-process (`serve.shard.local_fallback`) —
//!   byte-identical, because evaluation is deterministic.
//! * **Typed failure** — with no fallback, the run fails with
//!   [`ServeError::ShardFailed`] once [`ShardPlan::retries`] consecutive
//!   rounds make no progress or no shard survives — never a hang, never a
//!   partial grid.

use crate::client::{Client, ServeError, Timeouts};
use crate::wire::{MetricsReply, ProtocolError};
use asip_core::nxm::Grid;
use asip_core::session::{EvalOutcome, EvalRequest, Session};
use asip_isa::MachineDescription;
use asip_workloads::Workload;
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable supplying the default shard count for
/// [`ShardPlan`]: `0` or `1` (or unset/unparseable) mean in-process local
/// execution, `n > 1` means a coordinator over `n` spawned workers.
/// Precedence mirrors the session knobs: an explicit
/// [`ShardPlan::shards`]/[`ShardPlan::local`] call always wins; this
/// variable only feeds the default (pinned by the `session_env` tests).
pub const SHARDS_ENV: &str = "ASIP_SHARDS";

/// How a grid executes: in this process, or fanned out over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Single-process [`Session::eval_batch`].
    Local,
    /// A coordinator over this many worker processes.
    Sharded(usize),
}

/// The `ASIP_SHARDS` default: `Local` unless the variable names a count
/// above 1.
pub fn default_shard_mode() -> ShardMode {
    match std::env::var(SHARDS_ENV).ok().and_then(|v| v.parse().ok()) {
        Some(n) if n > 1 => ShardMode::Sharded(n),
        _ => ShardMode::Local,
    }
}

/// Seeded exponential-backoff-with-jitter for retryable failures (`Busy`
/// rejections, stale pooled connections). The jitter is a pure function of
/// `(seed, salt, attempt)` — deterministic given the seed, decorrelated
/// across shards via the salt — so two coordinators never thundering-herd
/// a recovering worker in lockstep, yet a chaos run's schedule reproduces
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First backoff window (default 5 ms).
    pub base: Duration,
    /// Backoff window ceiling (default 200 ms).
    pub cap: Duration,
    /// Busy retries per dispatch before the chunk returns to the pool
    /// (default 20).
    pub busy_budget: u32,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            busy_budget: 20,
            seed: 0xa51b_0ff5,
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based) on the stream
    /// salted by `salt` (shard index): an exponentially growing window
    /// `base * 2^attempt` capped at `cap`, jittered into its upper half.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let window = base.saturating_mul(1u64 << attempt.min(24)).min(cap).max(1);
        let h = splitmix(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt)
                .wrapping_add(u64::from(attempt) << 32),
        );
        let half = window / 2;
        Duration::from_nanos(half + h % (window - half + 1))
    }
}

/// Execution plan for a sharded (or local) grid run: mode, retry budget,
/// backoff policy, quarantine threshold and deadlines.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    mode: Option<ShardMode>,
    /// Consecutive zero-progress rounds tolerated before the run fails
    /// typed (default 2). A round that completes any cell resets the
    /// count — a slowly degrading fleet keeps going as long as it keeps
    /// finishing work.
    pub retries: u32,
    /// Consecutive chunk failures before a shard is quarantined out of
    /// the rotation (default 2); a refused connection quarantines at once.
    /// Quarantined shards are re-probed with a `Ping` at every round start
    /// and revived on answer.
    pub quarantine_after: u32,
    /// Backoff policy for busy retries and reconnects.
    pub retry: RetryPolicy,
    /// Deadline for one dispatch round (default 60 s): a chunk still
    /// retrying `Busy` past it fails back to the pending pool.
    pub round_deadline: Duration,
    /// Connection deadlines for worker RPCs (environment-tunable via
    /// [`crate::client::TIMEOUT_ENV`]).
    pub timeouts: Timeouts,
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan::new()
    }
}

impl ShardPlan {
    /// A plan with the default mode (builder > `ASIP_SHARDS` env > local)
    /// and failure policy.
    pub fn new() -> ShardPlan {
        ShardPlan {
            mode: None,
            retries: 2,
            quarantine_after: 2,
            retry: RetryPolicy::default(),
            round_deadline: Duration::from_secs(60),
            timeouts: Timeouts::default(),
        }
    }

    /// Explicitly shard over `n` workers (`n <= 1` means local). Wins over
    /// the environment.
    pub fn shards(mut self, n: usize) -> ShardPlan {
        self.mode = Some(if n > 1 {
            ShardMode::Sharded(n)
        } else {
            ShardMode::Local
        });
        self
    }

    /// Explicitly run locally. Wins over the environment.
    pub fn local(mut self) -> ShardPlan {
        self.mode = Some(ShardMode::Local);
        self
    }

    /// Builder-style zero-progress-round budget.
    #[must_use]
    pub fn retries(mut self, n: u32) -> ShardPlan {
        self.retries = n;
        self
    }

    /// Builder-style quarantine threshold.
    #[must_use]
    pub fn quarantine_after(mut self, n: u32) -> ShardPlan {
        self.quarantine_after = n.max(1);
        self
    }

    /// Builder-style retry policy.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> ShardPlan {
        self.retry = policy;
        self
    }

    /// Builder-style per-round deadline.
    #[must_use]
    pub fn round_deadline(mut self, d: Duration) -> ShardPlan {
        self.round_deadline = d;
        self
    }

    /// Builder-style connection deadlines.
    #[must_use]
    pub fn timeouts(mut self, t: Timeouts) -> ShardPlan {
        self.timeouts = t;
        self
    }

    /// The effective mode: the explicit setting, else the `ASIP_SHARDS`
    /// environment default.
    pub fn mode(&self) -> ShardMode {
        self.mode.unwrap_or_else(default_shard_mode)
    }
}

/// Worker connections the coordinator actually opened (pool misses); with
/// pooling this stays at one per shard per grid run instead of one per
/// dispatch round plus one per metrics scrape.
static OBS_SHARD_CONNECTS: asip_obs::Counter = asip_obs::Counter::new("serve.shard.connects");
/// Dispatch retries: busy backoffs slept plus stale-connection reconnect
/// attempts.
static OBS_RETRIES: asip_obs::Counter = asip_obs::Counter::new("serve.retries");
/// Cells sent again in a later dispatch round because the round that last
/// carried them did not complete them.
static OBS_REDISPATCHED: asip_obs::Counter = asip_obs::Counter::new("serve.redispatched");
/// Shards quarantined out of the rotation after consecutive failures.
static OBS_QUARANTINED: asip_obs::Counter = asip_obs::Counter::new("serve.shard.quarantined");
/// Quarantined shards revived by a successful re-probe.
static OBS_REVIVED: asip_obs::Counter = asip_obs::Counter::new("serve.shard.revived");
/// Cells completed by the in-process fallback after total shard loss.
static OBS_LOCAL_FALLBACK: asip_obs::Counter = asip_obs::Counter::new("serve.shard.local_fallback");

/// An in-process evaluator of last resort: completes pending cells when
/// every shard is quarantined (deterministic evaluation keeps the merged
/// grid byte-identical). [`run_grid`] passes the session's `eval_batch`.
pub type LocalFallback<'a> = &'a (dyn Fn(&[EvalRequest]) -> Vec<EvalOutcome> + Sync);

/// Per-shard persistent worker connections, reused across dispatch rounds
/// and the final metrics scrape instead of opening a fresh TCP connection
/// per RPC.
///
/// Connections are *taken* out of their slot for the duration of an RPC
/// and *put* back on success, rather than locked across the blocking
/// call — so a slow shard never serializes another round's dispatch to a
/// different shard, and a connection that errored is simply dropped
/// (never returned), leaving the slot empty for a reconnect.
struct ConnPool<'a> {
    addrs: &'a [String],
    timeouts: Timeouts,
    slots: Vec<Mutex<Option<Client>>>,
}

impl<'a> ConnPool<'a> {
    fn new(addrs: &'a [String], timeouts: Timeouts) -> ConnPool<'a> {
        ConnPool {
            addrs,
            timeouts,
            slots: addrs.iter().map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The shard's pooled connection, or a freshly opened (and counted)
    /// one when the slot is empty.
    fn take(&self, shard: usize) -> Result<Client, ServeError> {
        if let Some(client) = self.slots[shard].lock().unwrap().take() {
            return Ok(client);
        }
        OBS_SHARD_CONNECTS.add(1);
        Client::connect_with(&self.addrs[shard], &self.timeouts)
    }

    fn put(&self, shard: usize, client: Client) {
        *self.slots[shard].lock().unwrap() = Some(client);
    }
}

/// Whether `e` is a refused connection: nothing listens at the worker's
/// address, so re-sending before the `Ping` re-probe revives it would only
/// fail again.
fn is_refused(e: &ServeError) -> bool {
    matches!(e, ServeError::Protocol(ProtocolError::Io(io)) if io.kind() == io::ErrorKind::ConnectionRefused)
}

/// Dispatch one chunk to one worker over its pooled connection, absorbing
/// transient `Busy` rejections under the plan's [`RetryPolicy`] and the
/// round `deadline`.
///
/// A pooled connection can have gone stale between rounds (the worker
/// restarted, or died after its last reply); evaluation is idempotent and
/// cache-backed, so a transport error gets one transparent retry on a
/// fresh connection. A second failure is real — the chunk fails and the
/// shard's failure streak grows.
fn dispatch(
    pool: &ConnPool<'_>,
    shard: usize,
    reqs: &[EvalRequest],
    policy: &RetryPolicy,
    deadline: Instant,
) -> Result<Vec<EvalOutcome>, ServeError> {
    let mut span = asip_obs::span("serve", "shard_rpc");
    if span.is_recording() {
        span.detail(format!("{} cells -> {}", reqs.len(), pool.addrs[shard]));
    }
    let mut last = None;
    for conn_attempt in 0..2 {
        if conn_attempt > 0 {
            OBS_RETRIES.add(1);
        }
        // A failed (re)connect is the worker's state now: report it, so a
        // refused connection reads as one.
        let mut client = pool.take(shard)?;
        let mut busy = 0;
        loop {
            match client.eval(reqs) {
                Ok(outs) => {
                    pool.put(shard, client);
                    return Ok(outs);
                }
                Err(e @ ServeError::Busy { .. }) => {
                    if busy < policy.busy_budget && Instant::now() < deadline {
                        let pause = policy.backoff(busy, shard as u64);
                        busy += 1;
                        OBS_RETRIES.add(1);
                        std::thread::sleep(pause);
                    } else {
                        // The connection is healthy — the server is just
                        // saturated (or the round deadline expired). Keep
                        // the connection for the re-dispatch round.
                        pool.put(shard, client);
                        return Err(e);
                    }
                }
                Err(e) => {
                    last = Some(e);
                    break;
                }
            }
        }
    }
    Err(last.expect("transport error recorded before reconnect"))
}

/// Evaluate `reqs` across the workers at `addrs`, request-ordered.
///
/// Cell `i` goes to shard `i % addrs.len()` on the first round; cells of
/// failed shards are re-partitioned across healthy shards in later rounds
/// (see the [module docs](self) for the quarantine/backoff model). No
/// local fallback: with every shard down this fails typed — use
/// [`run_sharded_with`] to supply one.
///
/// # Errors
///
/// [`ServeError::ShardFailed`] when cells remain after the retry budget
/// (or no worker survives); [`ServeError::Spawn`] when `addrs` is empty.
pub fn run_sharded(
    addrs: &[String],
    reqs: &[EvalRequest],
    plan: &ShardPlan,
) -> Result<Vec<EvalOutcome>, ServeError> {
    run_sharded_with(addrs, reqs, plan, None)
}

/// [`run_sharded`] with an optional in-process evaluator of last resort:
/// when every shard is quarantined and re-probing revives none, the
/// pending cells complete through `fallback` instead of failing the run.
///
/// # Errors
///
/// Exactly [`run_sharded`]'s errors; with a fallback supplied, total
/// shard loss is not one of them.
pub fn run_sharded_with(
    addrs: &[String],
    reqs: &[EvalRequest],
    plan: &ShardPlan,
    fallback: Option<LocalFallback<'_>>,
) -> Result<Vec<EvalOutcome>, ServeError> {
    let pool = ConnPool::new(addrs, plan.timeouts);
    run_sharded_inner(&pool, reqs, plan, fallback).map(|(outs, _)| outs)
}

/// [`run_sharded_with`], then scrape each healthy worker's
/// [`MetricsReply`] over the `Metrics` RPC. The metrics vector is
/// shard-indexed; a shard that died (or refuses the scrape) reports
/// `None`. Render the result with [`format_shard_table`].
///
/// # Errors
///
/// Exactly [`run_sharded_with`]'s errors; a failed scrape is not an error.
pub fn run_sharded_metrics(
    addrs: &[String],
    reqs: &[EvalRequest],
    plan: &ShardPlan,
    fallback: Option<LocalFallback<'_>>,
) -> Result<(Vec<EvalOutcome>, Vec<Option<MetricsReply>>), ServeError> {
    let pool = ConnPool::new(addrs, plan.timeouts);
    let (outs, alive) = run_sharded_inner(&pool, reqs, plan, fallback)?;
    let mut metrics = vec![None; addrs.len()];
    for shard in alive {
        // Scrape over the shard's pooled connection; if it went stale
        // since its last dispatch, retry once on a fresh one (the failed
        // take leaves the slot empty, so the second take reconnects).
        for _ in 0..2 {
            let Ok(mut client) = pool.take(shard) else {
                break;
            };
            if let Ok(m) = client.metrics() {
                metrics[shard] = Some(m);
                pool.put(shard, client);
                break;
            }
        }
    }
    Ok((outs, metrics))
}

/// Render a shard-indexed metrics scrape (from [`run_sharded_metrics`]) as
/// the per-shard summary table `exp_serve` prints: cells evaluated, busy
/// rejections, per-cell eval latency p50/p99, the cache hit ratio over the
/// five pipeline stages, and (when nonzero) injected-fault and timeout
/// tallies. The latency is the worker's `cell.eval_ns` histogram, which
/// [`Session::eval`] records for every cell.
pub fn format_shard_table(metrics: &[Option<MetricsReply>]) -> String {
    let mut out = String::new();
    for (shard, m) in metrics.iter().enumerate() {
        let Some(m) = m else {
            out.push_str(&format!(
                "[serve] shard {shard}: no metrics (worker gone)\n"
            ));
            continue;
        };
        let cells = m.metrics.counter("serve.cells");
        let busy = m.metrics.counter("serve.busy_rejections");
        let (p50, p99) = m
            .metrics
            .histogram("cell.eval_ns")
            .map_or((0, 0), |h| (h.quantile_ns(0.5), h.quantile_ns(0.99)));
        let stages = [
            &m.cache.parse,
            &m.cache.optimize,
            &m.cache.profile,
            &m.cache.compile,
            &m.cache.simulate,
        ];
        let hits: u64 = stages.iter().map(|s| s.hits).sum();
        let lookups: u64 = stages.iter().map(|s| s.hits + s.misses).sum();
        #[allow(clippy::cast_precision_loss)]
        let hit_pct = if lookups == 0 {
            0.0
        } else {
            100.0 * hits as f64 / lookups as f64
        };
        #[allow(clippy::cast_precision_loss)]
        out.push_str(&format!(
            "[serve] shard {shard}: cells={cells} busy={busy} eval p50={:.3}ms p99={:.3}ms cache-hit={hit_pct:.1}%",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
        ));
        // Fault-injection and deadline activity, present only on workers
        // that actually injected or expired something.
        let faults: u64 = [
            "serve.faults.drop",
            "serve.faults.torn",
            "serve.faults.corrupt",
            "serve.faults.stall",
            "serve.faults.busy",
            "serve.faults.crash",
        ]
        .iter()
        .map(|n| m.metrics.counter(n))
        .sum();
        let timeouts = m.metrics.counter("serve.timeouts");
        if faults > 0 || timeouts > 0 {
            out.push_str(&format!(" faults={faults} timeouts={timeouts}"));
        }
        // Superblock trace activity, present only when the worker's
        // engine actually formed traces.
        let formed = m.metrics.counter("sim.trace.formed");
        if formed > 0 {
            let entries = m.metrics.counter("sim.trace.entries");
            let side_exits = m.metrics.counter("sim.trace.side_exits");
            let fallbacks = m.metrics.counter("sim.trace.fallbacks");
            #[allow(clippy::cast_precision_loss)]
            let side_pct = if entries == 0 {
                0.0
            } else {
                100.0 * side_exits as f64 / entries as f64
            };
            out.push_str(&format!(
                " sb-traces={formed} sb-entries={entries} sb-side-exit={side_pct:.1}% sb-fallbacks={fallbacks}"
            ));
        }
        out.push('\n');
    }
    out
}

/// Coordinator-side health tracking for one shard.
#[derive(Debug, Clone, Copy, Default)]
struct ShardHealth {
    /// Consecutive failed chunks (reset by any success).
    consecutive: u32,
    quarantined: bool,
}

fn run_sharded_inner(
    pool: &ConnPool<'_>,
    reqs: &[EvalRequest],
    plan: &ShardPlan,
    fallback: Option<LocalFallback<'_>>,
) -> Result<(Vec<EvalOutcome>, Vec<usize>), ServeError> {
    let addrs = pool.addrs;
    if addrs.is_empty() {
        return Err(ServeError::Spawn("no worker addresses".into()));
    }
    let slots: Mutex<Vec<Option<EvalOutcome>>> = Mutex::new(vec![None; reqs.len()]);
    let mut health = vec![ShardHealth::default(); addrs.len()];
    let mut pending: Vec<usize> = (0..reqs.len()).collect();
    let mut attempts = 0u32;
    // Rounds that completed no cell at all; any progress resets it. This
    // (not total rounds) is the budget `plan.retries` spends, so a fleet
    // that keeps finishing *some* cells each round is never failed.
    let mut stale_rounds = 0u32;
    while !pending.is_empty() {
        // Re-probe quarantined shards: a worker that was merely saturated
        // or stalled may answer now and rejoin the rotation.
        for (shard, h) in health.iter_mut().enumerate() {
            if !h.quarantined {
                continue;
            }
            if let Ok(mut client) = pool.take(shard) {
                if client.ping().is_ok() {
                    pool.put(shard, client);
                    h.quarantined = false;
                    h.consecutive = 0;
                    OBS_REVIVED.add(1);
                }
            }
        }
        let active: Vec<usize> = (0..addrs.len())
            .filter(|&s| !health[s].quarantined)
            .collect();
        if active.is_empty() {
            // Total shard loss. Degrade to in-process evaluation when the
            // caller allows it — deterministic evals keep the merged
            // result byte-identical — else fail typed.
            if let Some(eval_local) = fallback {
                let batch: Vec<EvalRequest> = pending.iter().map(|&i| reqs[i].clone()).collect();
                let outs = eval_local(&batch);
                if outs.len() == batch.len() {
                    OBS_LOCAL_FALLBACK.add(pending.len() as u64);
                    let mut slots = slots.lock().unwrap();
                    for (&i, out) in pending.iter().zip(outs) {
                        slots[i] = Some(out);
                    }
                    pending.clear();
                    continue;
                }
            }
            return Err(ServeError::ShardFailed {
                shard: 0,
                cells: pending.len(),
                attempts,
            });
        }
        if stale_rounds > plan.retries {
            let failed_shard = (0..addrs.len())
                .find(|&s| health[s].quarantined || health[s].consecutive > 0)
                .unwrap_or(0);
            return Err(ServeError::ShardFailed {
                shard: failed_shard,
                cells: pending.len(),
                attempts,
            });
        }
        if attempts > 0 {
            // Every cell that survived into a later round goes back on the
            // wire: its last dispatch did not complete it.
            OBS_REDISPATCHED.add(pending.len() as u64);
        }
        attempts += 1;
        let deadline = Instant::now() + plan.round_deadline;
        // Deterministic partition of the pending cells over active shards.
        let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); active.len()];
        for (k, &cell) in pending.iter().enumerate() {
            chunks[k % active.len()].push(cell);
        }
        // Per dispatched chunk: (shard, completed, connection refused).
        let round: Mutex<Vec<(usize, bool, bool)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (k, chunk) in chunks.iter().enumerate() {
                if chunk.is_empty() {
                    continue;
                }
                let shard = active[k];
                let slots = &slots;
                let round = &round;
                scope.spawn(move || {
                    let batch: Vec<EvalRequest> = chunk.iter().map(|&i| reqs[i].clone()).collect();
                    match dispatch(pool, shard, &batch, &plan.retry, deadline) {
                        Ok(outs) if outs.len() == batch.len() => {
                            let mut slots = slots.lock().unwrap();
                            for (&i, out) in chunk.iter().zip(outs) {
                                slots[i] = Some(out);
                            }
                            round.lock().unwrap().push((shard, true, false));
                        }
                        // Short reply or dead/busy worker: whole chunk
                        // back to the pool, failure streak grows.
                        Ok(_) => round.lock().unwrap().push((shard, false, false)),
                        Err(e) => round.lock().unwrap().push((shard, false, is_refused(&e))),
                    }
                });
            }
        });
        for (shard, ok, refused) in round.into_inner().unwrap() {
            let h = &mut health[shard];
            if ok {
                h.consecutive = 0;
            } else {
                h.consecutive += 1;
                if refused || h.consecutive >= plan.quarantine_after.max(1) {
                    h.quarantined = true;
                    OBS_QUARANTINED.add(1);
                }
            }
        }
        let before = pending.len();
        {
            let filled = slots.lock().unwrap();
            pending.retain(|&i| filled[i].is_none());
        }
        if pending.len() < before {
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }
    }
    let healthy = (0..addrs.len())
        .filter(|&s| !health[s].quarantined)
        .collect();
    let outs = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("no cell is pending"))
        .collect();
    Ok((outs, healthy))
}

/// Run the N×M grid under `plan`: [`ShardMode::Local`] is exactly
/// [`asip_core::nxm::run_grid`]; [`ShardMode::Sharded`] spawns that many
/// `--worker` copies of the **current executable** (which must dispatch to
/// [`crate::worker::try_worker_main`] at startup, as `exp_serve` and
/// `exp_nxm` do), fans the grid out, and merges byte-identical,
/// request-ordered results. Total worker loss degrades to in-process
/// evaluation on `session` instead of failing the run.
///
/// # Errors
///
/// Any [`ServeError`] from spawning or sharding (local runs are
/// infallible).
pub fn run_grid(
    session: &Session,
    machines: &[MachineDescription],
    workloads: &[Workload],
    plan: &ShardPlan,
) -> Result<Grid, ServeError> {
    match plan.mode() {
        ShardMode::Local => Ok(asip_core::nxm::run_grid(session, machines, workloads)),
        ShardMode::Sharded(n) => {
            let exe = std::env::current_exe()
                .map_err(|e| ServeError::Spawn(format!("current_exe: {e}")))?;
            let pool = WorkerPool::spawn(&exe, &[], &[], n)?;
            let reqs = EvalRequest::grid(machines, workloads);
            let eval_local = |batch: &[EvalRequest]| session.eval_batch(batch);
            let outcomes = run_sharded_with(pool.addrs(), &reqs, plan, Some(&eval_local))?;
            pool.shutdown();
            Ok(Grid::from_outcomes(machines, workloads, outcomes, n))
        }
    }
}

/// A fleet of spawned worker processes, each serving the wire protocol on
/// an ephemeral port it reports at startup. Remaining children are killed
/// on drop.
#[derive(Debug)]
pub struct WorkerPool {
    children: Vec<Option<std::process::Child>>,
    addrs: Vec<String>,
}

impl WorkerPool {
    /// Spawn `n` workers: `program args... --worker`, each with the extra
    /// environment `envs` (e.g. a shared `ASIP_CACHE_DIR`). Blocks until
    /// every worker reports `LISTENING <addr>` on stdout.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] when a child cannot start or exits without
    /// reporting an address.
    pub fn spawn(
        program: &std::path::Path,
        args: &[String],
        envs: &[(String, String)],
        n: usize,
    ) -> Result<WorkerPool, ServeError> {
        use std::io::BufRead;
        let mut pool = WorkerPool {
            children: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        };
        for i in 0..n {
            let mut cmd = std::process::Command::new(program);
            cmd.args(args)
                .arg(crate::worker::WORKER_FLAG)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::inherit());
            for (k, v) in envs {
                cmd.env(k, v);
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| ServeError::Spawn(format!("worker {i}: {e}")))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            let mut line = String::new();
            let got = std::io::BufReader::new(stdout).read_line(&mut line);
            let addr = match got {
                Ok(_) => line.trim().strip_prefix("LISTENING ").map(str::to_string),
                Err(_) => None,
            };
            let Some(addr) = addr else {
                let _ = child.kill();
                let _ = child.wait();
                // Reap anything already spawned before failing.
                drop(pool);
                return Err(ServeError::Spawn(format!(
                    "worker {i} reported {line:?} instead of LISTENING <addr>"
                )));
            };
            pool.children.push(Some(child));
            pool.addrs.push(addr);
        }
        Ok(pool)
    }

    /// The workers' listening addresses, spawn-ordered.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Kill worker `i` outright (simulating a crash). Idempotent.
    pub fn kill(&mut self, i: usize) {
        if let Some(child) = self.children.get_mut(i).and_then(Option::as_mut) {
            let _ = child.kill();
            let _ = child.wait();
            self.children[i] = None;
        }
    }

    /// Gracefully stop every surviving worker (shutdown RPC, then reap).
    pub fn shutdown(mut self) {
        for (i, child) in self.children.iter_mut().enumerate() {
            if let Some(mut c) = child.take() {
                if let Ok(client) = Client::connect(&self.addrs[i]) {
                    let _ = client.shutdown();
                }
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for child in self.children.iter_mut().filter_map(Option::take) {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_mode_precedence_is_builder_first() {
        // Environment interaction is pinned in tests/session_env.rs (under
        // the process-global env lock); here only the builder side.
        assert_eq!(ShardPlan::new().shards(4).mode(), ShardMode::Sharded(4));
        assert_eq!(ShardPlan::new().shards(1).mode(), ShardMode::Local);
        assert_eq!(ShardPlan::new().shards(0).mode(), ShardMode::Local);
        assert_eq!(
            ShardPlan::new().shards(8).local().mode(),
            ShardMode::Local,
            "later call wins"
        );
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 0..10 {
            for salt in 0..4 {
                let d = p.backoff(attempt, salt);
                assert_eq!(d, p.backoff(attempt, salt), "pure function");
                let window = p
                    .base
                    .saturating_mul(1 << attempt.min(24))
                    .min(p.cap)
                    .max(Duration::from_nanos(1));
                assert!(d <= window, "attempt {attempt}: {d:?} within {window:?}");
                assert!(d >= window / 2, "attempt {attempt}: jitter upper half");
            }
        }
        // High attempts stay at the cap, never overflow.
        assert!(p.backoff(1000, 0) <= p.cap);
        // Different salts decorrelate (at least one attempt differs).
        assert!(
            (0..10).any(|a| p.backoff(a, 0) != p.backoff(a, 1)),
            "salts must decorrelate the schedule"
        );
    }

    #[test]
    fn empty_address_list_is_a_typed_error() {
        assert!(matches!(
            run_sharded(&[], &[], &ShardPlan::new()),
            Err(ServeError::Spawn(_))
        ));
    }

    #[test]
    fn unreachable_workers_exhaust_into_shard_failed() {
        // Nothing listens on these ports (bound-then-dropped, so they were
        // free a moment ago); every dispatch errors, both shards end up
        // quarantined, re-probes fail, and the run fails typed — it must
        // not hang or panic.
        let free = |_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            format!("127.0.0.1:{}", l.local_addr().unwrap().port())
        };
        let addrs: Vec<String> = (0..2).map(free).collect();
        let fir = asip_workloads::by_name("fir").unwrap();
        let reqs = vec![EvalRequest::new(
            fir,
            asip_isa::MachineDescription::ember1(),
        )];
        match run_sharded(&addrs, &reqs, &ShardPlan::new().retries(1)) {
            Err(ServeError::ShardFailed { cells, .. }) => assert_eq!(cells, 1),
            other => panic!("expected ShardFailed, got {other:?}"),
        }
    }

    #[test]
    fn total_loss_with_fallback_completes_locally() {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![format!("127.0.0.1:{}", l.local_addr().unwrap().port())];
        drop(l);
        let fir = asip_workloads::by_name("fir").unwrap();
        let reqs = vec![EvalRequest::new(
            fir,
            asip_isa::MachineDescription::ember1(),
        )];
        let session = Session::builder().threads(1).build();
        let eval_local = |batch: &[EvalRequest]| session.eval_batch(batch);
        let plan = ShardPlan::new().retries(1).quarantine_after(1);
        let outs = run_sharded_with(&addrs, &reqs, &plan, Some(&eval_local))
            .expect("fallback completes the batch");
        assert_eq!(outs.len(), 1);
        assert_eq!(outs, session.eval_batch(&reqs), "byte-identical to local");
    }
}
