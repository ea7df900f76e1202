//! Deterministic fault injection for the serve stack.
//!
//! A seeded [`FaultPlan`] drives every failure mode the fault-tolerance
//! layer claims to survive: mid-frame connection drops, torn (partially
//! written) frames, single-bit corruption, read stalls, spurious `Busy`
//! responses, and worker crash-at-Nth-request. The hooks live in the wire
//! transport ([`crate::wire::write_frame`] / [`crate::wire::read_frame`])
//! and the server's `Eval` arm, so *every* peer — client, coordinator,
//! worker — misbehaves the same way real networks and crashed processes
//! do: the peer on the other side sees truncated frames, checksum
//! mismatches, reset connections, silent stalls and vanished processes,
//! never a magic in-process shortcut.
//!
//! # Activation and precedence
//!
//! Off by default. A plan installed programmatically with [`install`]
//! always wins; otherwise [`init_from_env`] (called by
//! [`crate::Client::connect`], [`crate::EvalServer::bind`] and the worker
//! entry points) parses the [`FAULTS_ENV`] spec string once. With no plan
//! active, every hook is **one relaxed atomic load** — the same pinned
//! discipline as `asip_obs` spans — so the serve hot path pays nothing.
//!
//! # Spec grammar
//!
//! Comma-separated `key=value` pairs, e.g.
//! `drop=0.05,stall=40ms@0.05,corrupt=0.02,crash_after=30`:
//!
//! | key           | value                | fault                                        |
//! |---------------|----------------------|----------------------------------------------|
//! | `drop`        | probability 0..=1    | connection drop *before* a frame is written  |
//! | `torn`        | probability 0..=1    | frame cut mid-write, then connection drop    |
//! | `corrupt`     | probability 0..=1    | one seeded bit flip in an outgoing frame     |
//! | `stall`       | `<dur>@<probability>`| sleep `<dur>` (`40ms`, `2s`) before a read   |
//! | `busy`        | probability 0..=1    | server answers `Busy` without evaluating     |
//! | `crash_after` | positive integer     | process exits at its Nth `Eval` request      |
//! | `seed`        | integer              | PRNG seed (decisions are a pure function of  |
//! |               |                      | the seed and the draw sequence)              |
//!
//! Unknown keys and malformed values are typed [`FaultSpecError`]s;
//! a malformed [`FAULTS_ENV`] value deactivates injection (the chaos CI
//! job catches a typo by asserting nonzero fault counters).
//!
//! Every injected fault increments a `serve.faults.*` counter, so the
//! `Metrics` RPC carries the injection tally to the shard coordinator's
//! per-shard table.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable holding the fault spec string. An [`install`]ed
/// plan wins over it (pinned by the `session_env` tests); empty or
/// malformed values mean no injection.
pub const FAULTS_ENV: &str = "ASIP_FAULTS";

static OBS_DROP: asip_obs::Counter = asip_obs::Counter::new("serve.faults.drop");
static OBS_TORN: asip_obs::Counter = asip_obs::Counter::new("serve.faults.torn");
static OBS_CORRUPT: asip_obs::Counter = asip_obs::Counter::new("serve.faults.corrupt");
static OBS_STALL: asip_obs::Counter = asip_obs::Counter::new("serve.faults.stall");
static OBS_BUSY: asip_obs::Counter = asip_obs::Counter::new("serve.faults.busy");
static OBS_CRASH: asip_obs::Counter = asip_obs::Counter::new("serve.faults.crash");

/// A seeded fault-injection plan. All probabilities default to zero and
/// `crash_after` to `None` — the default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that a frame write is replaced by a connection drop
    /// (nothing written; the writer sees a reset).
    pub drop: f64,
    /// Probability that only a seeded-length prefix of a frame is written
    /// before the connection drops — the peer reads a torn frame.
    pub torn: f64,
    /// Probability that one seeded bit of an outgoing frame is flipped
    /// (the frame still ships whole; the peer's checksum catches it).
    pub corrupt: f64,
    /// Probability that a read stalls for [`FaultPlan::stall`] first.
    pub stall_p: f64,
    /// How long a stalled read sleeps.
    pub stall: Duration,
    /// Probability that the server answers an `Eval` with a spurious
    /// `Busy` instead of evaluating.
    pub busy: f64,
    /// Exit the process at its Nth `Eval` request (crash mid-protocol,
    /// no reply, no cleanup).
    pub crash_after: Option<u64>,
    /// Seed for the decision stream: same seed, same draw sequence.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop: 0.0,
            torn: 0.0,
            corrupt: 0.0,
            stall_p: 0.0,
            stall: Duration::ZERO,
            busy: 0.0,
            crash_after: None,
            seed: 0x5eed_fa17,
        }
    }
}

/// A key or value in a fault spec string that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The spec names no known fault.
    UnknownKey(String),
    /// The key is known but its value does not parse (probability out of
    /// \[0, 1\], malformed duration, zero `crash_after`, missing `=`…).
    BadValue {
        /// The offending key.
        key: String,
        /// The value that failed to parse.
        value: String,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::UnknownKey(k) => write!(f, "unknown fault key {k:?}"),
            FaultSpecError::BadValue { key, value } => {
                write!(f, "bad value {value:?} for fault key {key:?}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_prob(key: &str, v: &str) -> Result<f64, FaultSpecError> {
    match v.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        _ => Err(FaultSpecError::BadValue {
            key: key.to_string(),
            value: v.to_string(),
        }),
    }
}

/// `40ms` / `2s` / bare `40` (milliseconds).
fn parse_duration(v: &str) -> Option<Duration> {
    if let Some(ms) = v.strip_suffix("ms") {
        return ms.parse::<u64>().ok().map(Duration::from_millis);
    }
    if let Some(s) = v.strip_suffix('s') {
        return s.parse::<u64>().ok().map(Duration::from_secs);
    }
    v.parse::<u64>().ok().map(Duration::from_millis)
}

impl FaultPlan {
    /// Parse a spec string (see the [module docs](self) for the grammar).
    ///
    /// # Errors
    ///
    /// A typed [`FaultSpecError`] naming the first offending key or value.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let bad = |key: &str, value: &str| FaultSpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            let Some((key, value)) = part.split_once('=') else {
                return Err(FaultSpecError::UnknownKey(part.to_string()));
            };
            match key {
                "drop" => plan.drop = parse_prob(key, value)?,
                "torn" => plan.torn = parse_prob(key, value)?,
                "corrupt" => plan.corrupt = parse_prob(key, value)?,
                "busy" => plan.busy = parse_prob(key, value)?,
                "stall" => {
                    let Some((dur, p)) = value.split_once('@') else {
                        return Err(bad(key, value));
                    };
                    plan.stall = parse_duration(dur).ok_or_else(|| bad(key, value))?;
                    plan.stall_p = parse_prob(key, p)?;
                }
                "crash_after" => match value.parse::<u64>() {
                    Ok(n) if n > 0 => plan.crash_after = Some(n),
                    _ => return Err(bad(key, value)),
                },
                "seed" => plan.seed = value.parse().map_err(|_| bad(key, value))?,
                _ => return Err(FaultSpecError::UnknownKey(key.to_string())),
            }
        }
        Ok(plan)
    }

    /// Whether this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.drop == 0.0
            && self.torn == 0.0
            && self.corrupt == 0.0
            && self.stall_p == 0.0
            && self.busy == 0.0
            && self.crash_after.is_none()
    }
}

/// The [`FAULTS_ENV`] default: `Some(plan)` only when the variable is set,
/// non-empty and well-formed.
pub fn default_fault_plan() -> Option<FaultPlan> {
    let spec = std::env::var(FAULTS_ENV).ok()?;
    if spec.is_empty() {
        return None;
    }
    FaultPlan::parse(&spec).ok()
}

struct FaultState {
    plan: FaultPlan,
    /// SplitMix64 state: the whole decision stream derives from the seed.
    rng: u64,
    /// `Eval` requests seen by this process (drives `crash_after`).
    eval_requests: u64,
    /// Whether the plan was installed programmatically (wins over env).
    explicit: bool,
}

/// Fast-path gate: the only cost any hook pays while no plan is active.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<FaultState>> = Mutex::new(None);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[allow(clippy::cast_precision_loss)]
fn hit(state: &mut FaultState, p: f64) -> bool {
    p > 0.0 && (splitmix(&mut state.rng) as f64) < p * (u64::MAX as f64)
}

fn set_state(state: Option<FaultState>) {
    let active = state.as_ref().is_some_and(|s| !s.plan.is_noop());
    *STATE.lock().unwrap() = state;
    ACTIVE.store(active, Ordering::Relaxed);
}

/// Install `plan` programmatically. Wins over [`FAULTS_ENV`]: subsequent
/// [`init_from_env`] calls are no-ops until [`clear`]. Installing a
/// no-op plan explicitly *disables* injection (builder-off beats env-on).
pub fn install(plan: FaultPlan) {
    let rng = plan.seed;
    set_state(Some(FaultState {
        plan,
        rng,
        eval_requests: 0,
        explicit: true,
    }));
}

/// Activate the [`FAULTS_ENV`] plan unless a plan is already in place
/// (installed explicitly, or by an earlier call). Idempotent; called by
/// every serve entry point so spawned workers and plain binaries pick the
/// environment up without code changes.
pub fn init_from_env() {
    let mut state = STATE.lock().unwrap();
    if state.is_some() {
        return;
    }
    let Some(plan) = default_fault_plan() else {
        return;
    };
    let rng = plan.seed;
    let noop = plan.is_noop();
    *state = Some(FaultState {
        plan,
        rng,
        eval_requests: 0,
        explicit: false,
    });
    drop(state);
    ACTIVE.store(!noop, Ordering::Relaxed);
}

/// Deactivate injection and forget any installed or env-derived plan
/// (so the next [`init_from_env`] re-reads the environment). Test hook.
pub fn clear() {
    set_state(None);
}

/// Whether any fault injection is active: one relaxed atomic load.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// A copy of the effective plan, when one is active or installed.
pub fn active_plan() -> Option<FaultPlan> {
    STATE.lock().unwrap().as_ref().map(|s| s.plan.clone())
}

/// Whether the effective plan was installed programmatically.
pub fn plan_is_explicit() -> bool {
    STATE.lock().unwrap().as_ref().is_some_and(|s| s.explicit)
}

/// What [`on_write`] decided for one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write the frame (possibly with a bit flipped in place).
    Pass,
    /// Drop the connection before writing anything.
    Drop,
    /// Write only this many bytes, then drop the connection.
    Torn(usize),
}

/// Decide the fate of one outgoing frame; may flip one bit of `frame` in
/// place. Call only when [`active`].
pub fn on_write(frame: &mut [u8]) -> WriteFault {
    let mut guard = STATE.lock().unwrap();
    let Some(state) = guard.as_mut() else {
        return WriteFault::Pass;
    };
    if hit(state, state.plan.drop) {
        OBS_DROP.add(1);
        return WriteFault::Drop;
    }
    if !frame.is_empty() && hit(state, state.plan.torn) {
        let cut = 1 + (splitmix(&mut state.rng) as usize) % frame.len().max(2).saturating_sub(1);
        OBS_TORN.add(1);
        return WriteFault::Torn(cut.min(frame.len() - 1).max(1));
    }
    if !frame.is_empty() && hit(state, state.plan.corrupt) {
        let bit = (splitmix(&mut state.rng) as usize) % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        OBS_CORRUPT.add(1);
    }
    WriteFault::Pass
}

/// Maybe sleep before a read (an injected slow peer). Call only when
/// [`active`]; the sleep happens outside the state lock.
pub fn maybe_stall() {
    let stall = {
        let mut guard = STATE.lock().unwrap();
        match guard.as_mut() {
            Some(state) => {
                let p = state.plan.stall_p;
                hit(state, p).then_some(state.plan.stall)
            }
            None => None,
        }
    };
    if let Some(dur) = stall {
        OBS_STALL.add(1);
        std::thread::sleep(dur);
    }
}

/// What the server should do with one incoming `Eval` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFault {
    /// Evaluate normally.
    Pass,
    /// Answer a spurious `Busy` without evaluating.
    Busy,
    /// Exit the process immediately — crash mid-protocol, no reply.
    Crash,
}

/// Decide the fate of one incoming `Eval` request. Call only when
/// [`active`]. The caller performs the crash ([`std::process::exit`]);
/// this function only counts it.
pub fn on_eval() -> EvalFault {
    let mut guard = STATE.lock().unwrap();
    let Some(state) = guard.as_mut() else {
        return EvalFault::Pass;
    };
    state.eval_requests += 1;
    if let Some(n) = state.plan.crash_after {
        if state.eval_requests >= n {
            OBS_CRASH.add(1);
            return EvalFault::Crash;
        }
    }
    if hit(state, state.plan.busy) {
        OBS_BUSY.add(1);
        return EvalFault::Busy;
    }
    EvalFault::Pass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The installed plan is process-global, so the tests that install or
    /// clear it take turns.
    static PLAN_LOCK: Mutex<()> = Mutex::new(());

    fn plan_lock() -> std::sync::MutexGuard<'static, ()> {
        PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spec_grammar_roundtrips_the_readme_example() {
        let plan = FaultPlan::parse("drop=0.05,stall=40ms@0.05,corrupt=0.02,crash_after=30")
            .expect("the documented example parses");
        assert_eq!(plan.drop, 0.05);
        assert_eq!(plan.stall, Duration::from_millis(40));
        assert_eq!(plan.stall_p, 0.05);
        assert_eq!(plan.corrupt, 0.02);
        assert_eq!(plan.crash_after, Some(30));
        assert!(!plan.is_noop());
        // Whitespace tolerance, seconds durations, bare-ms durations, seed.
        let plan = FaultPlan::parse(" torn=1 , stall=2s@1 , busy=0.5 , seed=7 ").unwrap();
        assert_eq!(plan.torn, 1.0);
        assert_eq!(plan.stall, Duration::from_secs(2));
        assert_eq!(plan.seed, 7);
        let plan = FaultPlan::parse("stall=15@0.25").unwrap();
        assert_eq!(plan.stall, Duration::from_millis(15));
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        assert_eq!(
            FaultPlan::parse("jitterbug=1"),
            Err(FaultSpecError::UnknownKey("jitterbug".into()))
        );
        assert_eq!(
            FaultPlan::parse("drop"),
            Err(FaultSpecError::UnknownKey("drop".into()))
        );
        for bad in [
            "drop=1.5",
            "drop=-0.1",
            "drop=often",
            "stall=40ms",
            "stall=soon@0.5",
            "stall=40ms@2",
            "crash_after=0",
            "crash_after=never",
            "seed=pi",
        ] {
            assert!(
                matches!(FaultPlan::parse(bad), Err(FaultSpecError::BadValue { .. })),
                "{bad:?} must be a typed BadValue"
            );
        }
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let _plan = plan_lock();
        let plan = |seed| FaultPlan {
            drop: 0.3,
            torn: 0.3,
            corrupt: 0.3,
            seed,
            ..FaultPlan::default()
        };
        let run = |seed| {
            install(plan(seed));
            let decisions: Vec<WriteFault> = (0..64)
                .map(|_| {
                    let mut frame = vec![0u8; 32];
                    on_write(&mut frame)
                })
                .collect();
            clear();
            decisions
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same decisions");
        assert_ne!(a, c, "different seed, different stream");
        assert!(a.iter().any(|f| *f != WriteFault::Pass), "faults do fire");
        assert!(a.contains(&WriteFault::Pass), "and do pass");
    }

    #[test]
    fn inactive_hooks_are_inert() {
        let _plan = plan_lock();
        clear();
        assert!(!active());
        let mut frame = vec![0xabu8; 16];
        assert_eq!(on_write(&mut frame), WriteFault::Pass);
        assert!(frame.iter().all(|&b| b == 0xab), "no mutation when off");
        assert_eq!(on_eval(), EvalFault::Pass);
        maybe_stall();
    }

    #[test]
    fn crash_after_counts_eval_requests() {
        let _plan = plan_lock();
        install(FaultPlan {
            crash_after: Some(3),
            ..FaultPlan::default()
        });
        assert_eq!(on_eval(), EvalFault::Pass);
        assert_eq!(on_eval(), EvalFault::Pass);
        assert_eq!(on_eval(), EvalFault::Crash);
        assert_eq!(on_eval(), EvalFault::Crash, "stays down after N");
        clear();
    }
}
