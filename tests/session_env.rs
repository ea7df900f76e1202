//! Environment-variable defaults for `Session::builder`, isolated in their
//! own test binary: `std::env::set_var` is process-global, so these tests
//! must not share a process with tests that build default-budget sessions
//! concurrently.

use asip::core::Session;
use std::sync::Mutex;

/// Serializes the tests in this binary: `std::env::set_var` is
/// process-global, so env-twiddling tests must not overlap in time.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// `ASIP_CACHE_BYTES` feeds the builder's default budget, exactly like
/// `ASIP_GRID_THREADS` feeds the worker count — and an explicit builder
/// call still wins over the environment.
#[test]
fn env_overrides_flow_into_builder_defaults() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("ASIP_CACHE_BYTES", "123456789");
    let s = Session::builder().build();
    assert_eq!(s.cache().byte_budget(), 123_456_789);

    std::env::set_var("ASIP_CACHE_BYTES", "1");
    let s = Session::builder().cache_bytes(777).build();
    assert_eq!(s.cache().byte_budget(), 777);

    // Garbage falls back to the compiled-in default.
    std::env::set_var("ASIP_CACHE_BYTES", "not-a-number");
    let s = Session::builder().build();
    assert_eq!(
        s.cache().byte_budget(),
        asip::core::cache::DEFAULT_CACHE_BYTES
    );
    std::env::remove_var("ASIP_CACHE_BYTES");
}

/// Persistent-cache-directory precedence, mirroring the
/// `ASIP_GRID_THREADS` rules: an explicit `cache_dir(..)` builder call
/// always wins; otherwise `ASIP_CACHE_DIR` supplies the directory; with
/// neither, no disk tier is attached (default-off).
#[test]
fn cache_dir_builder_wins_over_env_wins_over_default_off() {
    let _guard = ENV_LOCK.lock().unwrap();
    use asip::core::cache::{default_cache_dir, CACHE_DIR_ENV};

    let env_dir = std::env::temp_dir().join(format!("asip-envdir-{}", std::process::id()));
    let builder_dir = std::env::temp_dir().join(format!("asip-blddir-{}", std::process::id()));

    // Default-off: no env, no builder call → no disk tier.
    std::env::remove_var(CACHE_DIR_ENV);
    assert_eq!(default_cache_dir(), None);
    let s = Session::builder().build();
    assert_eq!(s.cache().disk_dir(), None);
    assert!(!s.cache_stats().has_disk);

    // Env wins over default-off…
    std::env::set_var(CACHE_DIR_ENV, &env_dir);
    assert_eq!(default_cache_dir().as_deref(), Some(env_dir.as_path()));
    let s = Session::builder().build();
    assert_eq!(s.cache().disk_dir(), Some(env_dir.as_path()));
    assert!(s.cache_stats().has_disk);

    // …but an explicit builder call wins over the environment.
    let s = Session::builder().cache_dir(&builder_dir).build();
    assert_eq!(s.cache().disk_dir(), Some(builder_dir.as_path()));

    // An empty value means unset (default-off again).
    std::env::set_var(CACHE_DIR_ENV, "");
    assert_eq!(default_cache_dir(), None);
    assert_eq!(Session::builder().build().cache().disk_dir(), None);

    std::env::remove_var(CACHE_DIR_ENV);
    let _ = std::fs::remove_dir_all(&env_dir);
    let _ = std::fs::remove_dir_all(&builder_dir);
}

/// Worker-count precedence: the builder is the single source of truth;
/// `ASIP_GRID_THREADS` is the documented environment override feeding its
/// *default*, and an explicit `threads(..)` call always wins over the
/// environment.
#[test]
fn grid_threads_env_feeds_default_but_builder_wins() {
    let _guard = ENV_LOCK.lock().unwrap();
    use asip::core::session::{default_threads, THREADS_ENV};

    // Env sets the default worker count…
    std::env::set_var(THREADS_ENV, "5");
    assert_eq!(default_threads(), 5);
    assert_eq!(Session::builder().build().threads(), 5);

    // …but an explicit builder call wins over the environment.
    assert_eq!(Session::builder().threads(2).build().threads(), 2);

    // Garbage and non-positive values fall back to hardware parallelism.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    std::env::set_var(THREADS_ENV, "zero-ish");
    assert_eq!(default_threads(), hw);
    std::env::set_var(THREADS_ENV, "0");
    assert_eq!(default_threads(), hw);

    std::env::remove_var(THREADS_ENV);
    assert_eq!(default_threads(), hw);
}

/// Shard-count precedence, mirroring the `ASIP_GRID_THREADS` rules: an
/// explicit `ShardPlan::shards(..)`/`local()` call always wins; otherwise
/// `ASIP_SHARDS` supplies the default; with neither — or with a count of
/// 0 or 1, or garbage — execution is in-process local.
#[test]
fn shards_env_feeds_default_but_plan_wins() {
    let _guard = ENV_LOCK.lock().unwrap();
    use asip::serve::{default_shard_mode, ShardMode, ShardPlan, SHARDS_ENV};

    // Compiled-in default: local.
    std::env::remove_var(SHARDS_ENV);
    assert_eq!(default_shard_mode(), ShardMode::Local);
    assert_eq!(ShardPlan::new().mode(), ShardMode::Local);

    // Env supplies the default…
    std::env::set_var(SHARDS_ENV, "3");
    assert_eq!(default_shard_mode(), ShardMode::Sharded(3));
    assert_eq!(ShardPlan::new().mode(), ShardMode::Sharded(3));

    // …but an explicit plan call wins over the environment, both ways.
    assert_eq!(ShardPlan::new().local().mode(), ShardMode::Local);
    assert_eq!(ShardPlan::new().shards(5).mode(), ShardMode::Sharded(5));
    std::env::set_var(SHARDS_ENV, "0");
    assert_eq!(ShardPlan::new().shards(2).mode(), ShardMode::Sharded(2));

    // 0, 1 and garbage all mean local.
    assert_eq!(default_shard_mode(), ShardMode::Local);
    std::env::set_var(SHARDS_ENV, "1");
    assert_eq!(default_shard_mode(), ShardMode::Local);
    std::env::set_var(SHARDS_ENV, "many");
    assert_eq!(default_shard_mode(), ShardMode::Local);

    std::env::remove_var(SHARDS_ENV);
}

/// Serve-deadline precedence, mirroring the `ASIP_GRID_THREADS` rules:
/// explicit [`Timeouts`] values (builder-style) always win; otherwise
/// `ASIP_SERVE_TIMEOUT_MS` supplies all three deadlines at once; garbage
/// or non-positive values fall back to the compiled defaults.
#[test]
fn serve_timeout_env_feeds_default_but_explicit_wins() {
    let _guard = ENV_LOCK.lock().unwrap();
    use asip::serve::{Timeouts, TIMEOUT_ENV};
    use std::time::Duration;

    // Compiled-in defaults.
    std::env::remove_var(TIMEOUT_ENV);
    assert_eq!(Timeouts::default(), Timeouts::compiled());

    // Env supplies all three deadlines at once…
    std::env::set_var(TIMEOUT_ENV, "250");
    let t = Timeouts::default();
    assert_eq!(t.connect, Duration::from_millis(250));
    assert_eq!(t.read, Duration::from_millis(250));
    assert_eq!(t.write, Duration::from_millis(250));

    // …but explicit values win over the environment.
    let t = Timeouts::default().read(Duration::from_secs(9));
    assert_eq!(t.read, Duration::from_secs(9));
    assert_eq!(t.connect, Duration::from_millis(250), "others keep the env");

    // Zero and garbage fall back to the compiled defaults.
    std::env::set_var(TIMEOUT_ENV, "0");
    assert_eq!(Timeouts::default(), Timeouts::compiled());
    std::env::set_var(TIMEOUT_ENV, "soon");
    assert_eq!(Timeouts::default(), Timeouts::compiled());

    std::env::remove_var(TIMEOUT_ENV);
}

/// Fault-injection precedence: a plan installed programmatically wins over
/// `ASIP_FAULTS`; otherwise the env spec activates injection; unset,
/// empty or malformed specs leave injection off.
#[test]
fn faults_env_feeds_default_but_install_wins() {
    let _guard = ENV_LOCK.lock().unwrap();
    use asip::serve::{faults, FaultPlan, FAULTS_ENV};

    // Unset / empty / malformed: no plan, hooks inactive.
    faults::clear();
    std::env::remove_var(FAULTS_ENV);
    faults::init_from_env();
    assert!(!faults::active());
    assert_eq!(faults::active_plan(), None);
    faults::clear();
    std::env::set_var(FAULTS_ENV, "");
    faults::init_from_env();
    assert!(!faults::active());
    faults::clear();
    std::env::set_var(FAULTS_ENV, "drop=lots");
    faults::init_from_env();
    assert!(
        !faults::active(),
        "malformed spec must deactivate, not panic"
    );

    // Env supplies the plan…
    faults::clear();
    std::env::set_var(FAULTS_ENV, "drop=0.25,seed=7");
    faults::init_from_env();
    assert!(faults::active());
    let plan = faults::active_plan().expect("env plan installed");
    assert_eq!(plan.drop, 0.25);
    assert_eq!(plan.seed, 7);

    // …but an installed plan wins over the environment: even an explicit
    // no-op plan disables injection while ASIP_FAULTS says otherwise.
    faults::clear();
    faults::install(FaultPlan::default());
    faults::init_from_env(); // must not clobber the installed plan
    assert!(!faults::active(), "explicit no-op beats env-on");
    assert_eq!(faults::active_plan(), Some(FaultPlan::default()));

    faults::clear();
    std::env::remove_var(FAULTS_ENV);
}

/// The Simulate stage key deliberately omits the engine and its promotion
/// threshold: the block engine is bit-identical to the reference oracle
/// (pinned by the differential suite), so a result cached under one must
/// be served to a session running the other — and the served result must
/// equal what the other would have computed.
#[test]
fn simulate_cache_keys_are_engine_agnostic() {
    let _guard = ENV_LOCK.lock().unwrap();
    use asip::core::cache::ArtifactCache;
    use asip::sim::SimEngine;
    use std::sync::Arc;

    let cache = Arc::new(ArtifactCache::new());
    let w = asip::workloads::by_name("fir").unwrap();
    let m = asip::isa::MachineDescription::ember4();

    let s1 = Session::builder()
        .cache(Arc::clone(&cache))
        .sim_engine(SimEngine::Reference)
        .build();
    let r1 = s1.run_workload(&w, &m).expect("reference run");
    let stats = s1.cache_stats();
    assert_eq!(
        (stats.simulate.hits, stats.simulate.misses),
        (0, 1),
        "first run must compute"
    );

    let s2 = Session::builder()
        .cache(Arc::clone(&cache))
        .sim_engine(SimEngine::Block)
        .sb_threshold(4)
        .build();
    let r2 = s2.run_workload(&w, &m).expect("block run");
    let stats = s2.cache_stats();
    assert_eq!(
        (stats.simulate.hits, stats.simulate.misses),
        (1, 1),
        "the other engine must hit the same Simulate entry"
    );
    assert_eq!(r1.sim, r2.sim, "served result equals the engine's own");
}
