//! The two-tier, memoized artifact store behind every
//! [`Toolchain`](crate::pipeline::Toolchain) and
//! [`Session`](crate::session::Session).
//!
//! # Memory, then disk, then compute
//!
//! The cache holds two concrete tiers:
//!
//! * **Memory**: the LRU byte-budgeted in-process store
//!   ([`CacheConfig::byte_budget`], default [`DEFAULT_CACHE_BYTES`],
//!   `ASIP_CACHE_BYTES`).
//! * **Disk** (optional): a persistent directory
//!   ([`SessionBuilder::cache_dir`](crate::session::SessionBuilder::cache_dir)
//!   or `ASIP_CACHE_DIR`) that survives the process, so a new session
//!   warm-starts the whole pipeline.
//!
//! A lookup probes memory first. Only the cache writes that tier, and
//! every entry in it is bytes this process encoded, or bytes it
//! decode-checked when promoting them from disk, so a memory hit is served
//! undecoded. A memory miss falls to disk: a disk hit is decoded, then
//! promoted into memory, and a payload that fails the decode is deleted
//! and recomputed. A full miss computes the artifact and writes it to
//! both tiers. Each tier counts its own [`TierStats`] (hits, loads, stale
//! drops, evictions) inside [`CacheStats`], and records the
//! `cache.mem.*`/`cache.disk.*` counters and the `cache` spans itself.
//!
//! # Exact byte keys
//!
//! A stage's key is the codec encoding of everything the stage reads,
//! built with [`Writer`]: the source text, the [`OptConfig`], the
//! machine, the backend options, the workload's inputs and arguments, and
//! the **payload bytes of its parent artifacts** (the optimized module for
//! Profile and Compile, the profile for Compile, the compiled program for
//! Simulate). A parent goes into its child's key as the payload the cache
//! holds, shared rather than copied (see the `key` module), so a warm
//! evaluation never renders, re-encodes or copies a module or a program
//! to look up the next stage. Codec encodings delimit themselves, so the
//! concatenation is injective: two keys are equal only if every input is.
//!
//! Both tiers compare keys **exactly**. The memory tier buckets entries by
//! a 64-bit hash of the key (four multiply-fold lanes per 32-byte block,
//! with each shared parent entering as the hash of its bytes), and
//! compares the stored key on every probe, a shared parent by pointer
//! before bytes, so a hash collision degrades to a bucket scan, never to
//! a wrong artifact. (Tests force the degenerate all-collide case through
//! [`CacheConfig::hash_mask`].) The disk tier names each file by the same
//! hash of the flat key bytes under two seeds and stores those bytes in
//! a self-describing header (magic, [`FORMAT_VERSION`],
//! stage kind, key, payload checksum) that a load re-verifies, so a
//! file-name collision, a stale format or plain file corruption silently
//! degrades to a recompute.
//!
//! # Artifacts travel as versioned bytes
//!
//! Every cached artifact kind (IR modules, profiles, compiled VLIW/scalar
//! programs, simulation results) implements the hand-rolled binary
//! [`Codec`] ([`asip_isa::codec`]); `decode(encode(x)) == x` exactly, so
//! disk-warm, memory-warm and cold evaluations produce byte-identical
//! results; only the counters in [`CacheStats`] can tell them apart.
//!
//! Payloads travel as shared `Arc<[u8]>`: a memory hit clones a
//! reference, not the bytes. A stage returns its payload in a handle that
//! decodes the value only when something reads it, so a fully warm
//! evaluation decodes nothing but its Simulate entry.
//!
//! [`OptConfig`]: asip_ir::passes::OptConfig
//! [`Writer`]: asip_isa::codec::Writer

mod disk;
mod entry;
mod key;
mod mem;

pub use entry::FORMAT_VERSION;
pub(crate) use key::{Key, KeyWriter, Payload};

use crate::pipeline::ToolchainError;
use asip_isa::codec::Codec;
use disk::DiskStore;
use mem::MemoryStore;
use std::cell::OnceCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default memory-tier byte budget (256 MiB) when neither
/// [`CacheConfig::byte_budget`] nor `ASIP_CACHE_BYTES` says otherwise.
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// Default disk-tier byte budget (1 GiB) when [`DiskTierConfig`] does not
/// say otherwise.
pub const DEFAULT_DISK_CACHE_BYTES: u64 = 1024 * 1024 * 1024;

/// Environment variable overriding the default memory-tier byte budget.
pub const CACHE_BYTES_ENV: &str = "ASIP_CACHE_BYTES";

/// Environment variable naming the persistent cache directory. Unset (or
/// empty) means no disk tier; an explicit
/// [`SessionBuilder::cache_dir`](crate::session::SessionBuilder::cache_dir)
/// always wins over this variable.
pub const CACHE_DIR_ENV: &str = "ASIP_CACHE_DIR";

/// The byte budget a fresh cache uses: `ASIP_CACHE_BYTES` if set to a
/// parseable `u64`, else [`DEFAULT_CACHE_BYTES`].
pub fn default_cache_bytes() -> u64 {
    std::env::var(CACHE_BYTES_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_CACHE_BYTES)
}

/// The default persistent cache directory: `ASIP_CACHE_DIR` when set and
/// non-empty, else `None` (no disk tier).
pub fn default_cache_dir() -> Option<PathBuf> {
    std::env::var_os(CACHE_DIR_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Configuration of the persistent disk tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskTierConfig {
    /// Directory holding the cache (created on demand; one subdirectory
    /// per stage).
    pub dir: PathBuf,
    /// Maximum total entry-file bytes before eviction, which deletes the
    /// least recently used entries first. Default
    /// [`DEFAULT_DISK_CACHE_BYTES`].
    pub byte_budget: u64,
}

impl DiskTierConfig {
    /// A disk tier at `dir` with the default budget.
    pub fn new(dir: impl Into<PathBuf>) -> DiskTierConfig {
        DiskTierConfig {
            dir: dir.into(),
            byte_budget: DEFAULT_DISK_CACHE_BYTES,
        }
    }
}

/// Cache construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Maximum resident artifact bytes in the memory tier before LRU
    /// eviction kicks in.
    pub byte_budget: u64,
    /// Mask applied to the memory tier's 64-bit key hash. `!0` (the
    /// default) keeps the full hash; tests set narrower masks (down to `0`)
    /// to force bucket collisions and exercise the stored-key fallback
    /// path.
    pub hash_mask: u64,
    /// Optional persistent disk tier. `None` by default: only
    /// [`Session::builder`](crate::session::Session::builder) consults
    /// `ASIP_CACHE_DIR` (via [`default_cache_dir`]), so bare
    /// `ArtifactCache`/`Toolchain` construction stays hermetic — unit
    /// tests and scratch toolchains never touch (or clear!) a persistent
    /// directory they were not explicitly pointed at.
    pub disk: Option<DiskTierConfig>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: default_cache_bytes(),
            hash_mask: !0,
            disk: None,
        }
    }
}

/// The stages of the pipeline graph, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// TinyC source → unoptimized IR module.
    Parse = 0,
    /// IR module → optimized IR module.
    Optimize = 1,
    /// Optimized module + inputs → block-frequency profile.
    Profile = 2,
    /// Module + machine (+ profile) → compiled program.
    Compile = 3,
    /// Compiled program + machine → simulation result, golden-checked.
    Simulate = 4,
}

impl StageKind {
    /// Every stage, in pipeline order. The cache memoizes all of them.
    pub const ALL: [StageKind; 5] = [
        StageKind::Parse,
        StageKind::Optimize,
        StageKind::Profile,
        StageKind::Compile,
        StageKind::Simulate,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Parse => "parse",
            StageKind::Optimize => "optimize",
            StageKind::Profile => "profile",
            StageKind::Compile => "compile",
            StageKind::Simulate => "simulate",
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hit/miss counters for one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Artifact served from either tier.
    pub hits: u64,
    /// Artifact computed (and written to both tiers).
    pub misses: u64,
}

/// Counters for one cache tier ([`CacheStats::mem`] or
/// [`CacheStats::disk`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups that returned a verified artifact from this tier.
    pub hits: u64,
    /// Lookup attempts reaching this tier (hits + misses + stale drops).
    pub loads: u64,
    /// Payloads written into this tier (computed artifacts and
    /// promotions).
    pub stores: u64,
    /// Entries dropped because they failed verification: truncation,
    /// corruption, format-version or key mismatch, undecodable payload.
    /// Every one degrades silently to a recompute. Always zero for the
    /// memory tier, which holds only bytes this process encoded or
    /// checked.
    pub stale_drops: u64,
    /// Entries evicted by the tier's retention policy (LRU bytes in
    /// memory, least recently used files first on disk; non-admitted
    /// oversized entries count here too).
    pub evictions: u64,
    /// Orphaned temporary files reclaimed at open: `.tmp-*` leftovers of
    /// writers that crashed between write and rename. Always zero for
    /// the memory tier, which has no staging area. A crash-looped fleet
    /// that kept leaking these would otherwise fill the disk silently.
    pub tmp_reclaimed: u64,
    /// Estimated bytes currently held by this tier.
    pub resident_bytes: u64,
    /// Entries currently held by this tier.
    pub entries: u64,
}

impl fmt::Display for TierStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits/{} loads, {} stale, {} evictions, {} KiB in {} entries",
            self.hits,
            self.loads,
            self.stale_drops,
            self.evictions,
            self.resident_bytes / 1024,
            self.entries,
        )?;
        if self.tmp_reclaimed > 0 {
            write!(f, ", {} tmp reclaimed", self.tmp_reclaimed)?;
        }
        Ok(())
    }
}

/// Snapshot of cache behavior (see [`crate::pipeline::Toolchain::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Source → unoptimized module.
    pub parse: StageStats,
    /// (source, opt config) → optimized module.
    pub optimize: StageStats,
    /// (module, inputs, args) → profile.
    pub profile: StageStats,
    /// (module, machine, backend, profile) → compiled program.
    pub compile: StageStats,
    /// (target, artifact, machine, sim options, inputs, args) → simulation
    /// result. A hit skips the cycle-level simulation entirely.
    pub simulate: StageStats,
    /// Memory-tier artifacts evicted to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently held by the memory tier.
    pub resident_bytes: u64,
    /// Memory-tier counters.
    pub mem: TierStats,
    /// Disk-tier counters (all zero when no disk tier is attached).
    pub disk: TierStats,
    /// Whether a persistent disk tier is attached.
    pub has_disk: bool,
}

impl CacheStats {
    /// Total hits across all stages (served from either tier).
    pub fn hits(&self) -> u64 {
        self.parse.hits
            + self.optimize.hits
            + self.profile.hits
            + self.compile.hits
            + self.simulate.hits
    }

    /// Total misses across all stages (artifact computed).
    pub fn misses(&self) -> u64 {
        self.parse.misses
            + self.optimize.misses
            + self.profile.misses
            + self.compile.misses
            + self.simulate.misses
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse {}/{} optimize {}/{} profile {}/{} compile {}/{} simulate {}/{} \
             (hits/misses), {} evictions, {} KiB resident",
            self.parse.hits,
            self.parse.misses,
            self.optimize.hits,
            self.optimize.misses,
            self.profile.hits,
            self.profile.misses,
            self.compile.hits,
            self.compile.misses,
            self.simulate.hits,
            self.simulate.misses,
            self.evictions,
            self.resident_bytes / 1024,
        )?;
        if self.has_disk {
            write!(f, "; disk tier: {}", self.disk)?;
        }
        Ok(())
    }
}

/// Seed of the key hash the memory tier buckets by and the disk tier's
/// first file-name half.
pub(crate) const KEY_SEED: u64 = 0;

/// 64-bit hash of `bytes` from `seed`. The seed, xored with the length,
/// starts four lanes, one per multiplier constant. Each 32-byte block
/// gives each lane one little-endian word, which is xored into the lane;
/// the lane is then multiplied by its odd constant to 128 bits and folded
/// back by xoring the two halves. A final block holds the tail, padded
/// with zeros, and the lanes fold into one word in order. No lane waits on
/// another's multiply, so a long key hashes at the multiplier's throughput
/// rather than its latency. Both tiers compare keys exactly, so the hash
/// only has to spread them; it makes no claim against crafted collisions.
pub(crate) fn hash64(bytes: &[u8], seed: u64) -> u64 {
    const K: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xd6e8_feb8_6659_fd93,
    ];
    let fold = |x: u64, k: u64| {
        let p = u128::from(x) * u128::from(k);
        (p as u64) ^ ((p >> 64) as u64)
    };
    let absorb = |lanes: &mut [u64; 4], block: &[u8]| {
        for ((lane, k), word) in lanes.iter_mut().zip(K).zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = fold(*lane ^ word, k);
        }
    };
    let start = seed ^ bytes.len() as u64;
    let mut lanes = K.map(|k| fold(start, k));
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let rest = blocks.remainder();
    let mut tail = [0u8; 32];
    tail[..rest.len()].copy_from_slice(rest);
    absorb(&mut lanes, &tail);
    lanes
        .into_iter()
        .fold(start, |h, lane| fold(h ^ lane, K[0]))
}

/// Per-stage **self wall time** histograms: the full wall clock of each
/// [`ArtifactCache::get_or_compute`] call (probe + compute + stores, hits
/// included), minus the wall time of nested stage calls inside its compute
/// closure. Selves therefore partition the outermost call's wall time —
/// summed across stages they reconstruct an evaluation's wall time within
/// tolerance (pinned by the `obs_timing` integration test). They are the
/// one per-stage timer: the `exp_*` summaries read their sums.
static STAGE_SELF_NS: [asip_obs::Histogram; 5] = [
    asip_obs::Histogram::new("stage.parse.self_ns"),
    asip_obs::Histogram::new("stage.optimize.self_ns"),
    asip_obs::Histogram::new("stage.profile.self_ns"),
    asip_obs::Histogram::new("stage.compile.self_ns"),
    asip_obs::Histogram::new("stage.simulate.self_ns"),
];

thread_local! {
    /// Wall nanoseconds consumed by already-completed *child* stage calls
    /// of the stage call currently running on this thread.
    static CHILD_STAGE_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One stack frame of stage self-time accounting (see [`STAGE_SELF_NS`]).
struct StageFrame {
    start: Instant,
    parent_child_ns: u64,
}

impl StageFrame {
    fn enter() -> StageFrame {
        StageFrame {
            start: Instant::now(),
            parent_child_ns: CHILD_STAGE_NS.with(|c| c.replace(0)),
        }
    }

    fn exit(self, stage: StageKind) {
        let wall = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let children = CHILD_STAGE_NS.with(|c| c.get());
        STAGE_SELF_NS[stage as usize].record(wall.saturating_sub(children));
        // Report this call's *full* wall to the parent frame.
        CHILD_STAGE_NS.with(|c| c.set(self.parent_child_ns.saturating_add(wall)));
    }
}

/// The memoized artifact cache shared by every clone of a [`Toolchain`]
/// (clones share one cache via `Arc`).
///
/// Lookups probe memory, then disk, then compute; see the
/// [module docs](self) for what each tier verifies. Computation happens
/// outside any lock: concurrent grid cells never serialize on each other's
/// compiles (at worst a race computes the same artifact twice and the
/// deterministic copies are identical).
///
/// [`Toolchain`]: crate::pipeline::Toolchain
pub struct ArtifactCache {
    mem: MemoryStore,
    disk: Option<DiskStore>,
    config: CacheConfig,
    hits: [AtomicU64; 5],
    misses: [AtomicU64; 5],
    /// Total simulated cycles produced by Simulate-stage *executions*
    /// (cache hits add nothing): the numerator of the session throughput
    /// (MIPS) report.
    sim_cycles: AtomicU64,
}

impl ArtifactCache {
    /// A new, empty cache with the default configuration (memory budget
    /// from `ASIP_CACHE_BYTES` or [`DEFAULT_CACHE_BYTES`]; no disk tier —
    /// see [`CacheConfig::disk`]).
    pub fn new() -> ArtifactCache {
        ArtifactCache::with_config(CacheConfig::default())
    }

    /// A new, empty cache with explicit configuration: the memory tier,
    /// plus the disk tier when [`CacheConfig::disk`] is set.
    pub fn with_config(config: CacheConfig) -> ArtifactCache {
        ArtifactCache {
            mem: MemoryStore::new(config.byte_budget, config.hash_mask),
            disk: config.disk.clone().map(DiskStore::open),
            config,
            hits: Default::default(),
            misses: Default::default(),
            sim_cycles: AtomicU64::new(0),
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config.clone()
    }

    /// The configured memory-tier byte budget.
    pub fn byte_budget(&self) -> u64 {
        self.config.byte_budget
    }

    /// The persistent cache directory, when a disk tier is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.config.disk.as_ref().map(|d| d.dir.as_path())
    }

    /// Per-stage hit/miss snapshot plus per-tier counters.
    pub fn stats(&self) -> CacheStats {
        let s = |i: usize| StageStats {
            hits: self.hits[i].load(Ordering::Relaxed),
            misses: self.misses[i].load(Ordering::Relaxed),
        };
        let mem = self.mem.stats();
        let disk = self.disk.as_ref().map(DiskStore::stats);
        CacheStats {
            parse: s(0),
            optimize: s(1),
            profile: s(2),
            compile: s(3),
            simulate: s(4),
            evictions: mem.evictions,
            resident_bytes: mem.resident_bytes,
            mem,
            disk: disk.unwrap_or_default(),
            has_disk: disk.is_some(),
        }
    }

    /// Drop all cached artifacts in **both** tiers (including persisted
    /// disk entries) and reset all counters.
    pub fn clear(&self) {
        self.mem.clear();
        if let Some(disk) = &self.disk {
            disk.clear();
        }
        for c in self.hits.iter().chain(&self.misses) {
            c.store(0, Ordering::Relaxed);
        }
        self.sim_cycles.store(0, Ordering::Relaxed);
    }

    /// Total simulated cycles recorded by Simulate-stage executions (cache
    /// hits add nothing). Over the `stage.simulate.self_ns` histogram's
    /// sum this yields the simulation throughput (cycles per host second).
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles.load(Ordering::Relaxed)
    }

    /// Record cycles simulated by one Simulate-stage execution.
    pub(crate) fn record_sim_cycles(&self, cycles: u64) {
        self.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Number of artifacts held by the memory tier, per stage.
    pub fn len(&self) -> [usize; 5] {
        self.mem.stage_entries().map(|n| n as usize)
    }

    /// Whether neither tier holds any artifact.
    pub fn is_empty(&self) -> bool {
        self.mem.stats().entries == 0 && self.disk.as_ref().is_none_or(|d| d.stats().entries == 0)
    }

    /// Estimated resident artifact bytes in the memory tier.
    pub fn resident_bytes(&self) -> u64 {
        self.mem.stats().resident_bytes
    }

    /// Look up `key` for `stage` in memory, then on disk, computing and
    /// storing into both tiers on a full miss. Returns the payload in a
    /// [`Staged`] handle that decodes it on first use.
    ///
    /// A disk payload that fails its decode check is deleted and
    /// recomputed — corruption degrades to a recompute, never an error.
    /// `compute` runs outside any lock. The call's wall time, net of the
    /// nested stage calls inside `compute` (e.g. Optimize invoking Parse),
    /// is recorded as this stage's self time (see [`STAGE_SELF_NS`]).
    pub(crate) fn get_or_compute<V: Codec>(
        &self,
        stage: StageKind,
        key: &Key,
        compute: impl FnOnce() -> Result<V, ToolchainError>,
    ) -> Result<Staged<V>, ToolchainError> {
        // Symmetric timing: the frame measures this call's *entire* wall
        // time (hit or miss, probe and stores included), net of nested
        // stage calls — see STAGE_SELF_NS.
        let frame = StageFrame::enter();
        let mut span = asip_obs::span("stage", stage.name());
        let out = match self.probe(stage, key) {
            Some(staged) => {
                self.hits[stage as usize].fetch_add(1, Ordering::Relaxed);
                span.note("hit");
                Ok(staged)
            }
            None => {
                self.misses[stage as usize].fetch_add(1, Ordering::Relaxed);
                span.note("miss");
                compute().map(|v| {
                    let staged = Staged::new(v);
                    self.mem.store(stage, key, &staged.payload);
                    if let Some(disk) = &self.disk {
                        disk.store(stage, &key.to_bytes(), &staged.payload);
                    }
                    staged
                })
            }
        };
        drop(span);
        frame.exit(stage);
        out
    }

    /// The cached artifact for (stage, key): a memory hit as it is, or a
    /// disk hit that decodes, promoted into memory.
    fn probe<V: Codec>(&self, stage: StageKind, key: &Key) -> Option<Staged<V>> {
        if let Some(payload) = self.mem.load(stage, key) {
            return Some(Staged::verified(payload));
        }
        let disk = self.disk.as_ref()?;
        let flat = key.to_bytes();
        let payload = disk.load(stage, &flat)?;
        match V::decode_all(&payload) {
            Ok(value) => {
                let payload = Payload::new(payload);
                self.mem.store(stage, key, &payload);
                Some(Staged::decoded(payload, value))
            }
            // Verified container, undecodable payload (e.g. encoded by a
            // build with different tag assignments): drop and recompute.
            Err(_) => {
                disk.invalidate(stage, &flat);
                None
            }
        }
    }
}

/// A stage's artifact as the pipeline passes it from stage to stage: the
/// payload bytes the cache holds, and the value, decoded on first use. A
/// child stage shares the payload in its key and reads the value only
/// when it misses.
pub(crate) struct Staged<V> {
    payload: Payload,
    value: OnceCell<V>,
}

impl<V: Codec> Staged<V> {
    /// A value computed in this process, encoded once.
    fn new(value: V) -> Staged<V> {
        Staged {
            payload: Payload::new(value.encode_to_vec().into()),
            value: OnceCell::from(value),
        }
    }

    /// A payload from the memory tier, which holds only verified bytes.
    fn verified(payload: Payload) -> Staged<V> {
        Staged {
            payload,
            value: OnceCell::new(),
        }
    }

    /// A payload with the value its decode check produced.
    fn decoded(payload: Payload, value: V) -> Staged<V> {
        Staged {
            payload,
            value: OnceCell::from(value),
        }
    }

    /// The artifact's codec encoding.
    pub(crate) fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The artifact, decoded on the first call.
    pub(crate) fn get(&self) -> &V {
        self.value.get_or_init(|| decode_verified(&self.payload))
    }

    /// The artifact, owned: the decoded value if there is one, else a
    /// fresh decode. The cache holds only bytes, so the caller may mutate
    /// it freely.
    pub(crate) fn into_value(self) -> V {
        self.value
            .into_inner()
            .unwrap_or_else(|| decode_verified(&self.payload))
    }
}

/// Decode a payload that this process encoded or already decode-checked.
fn decode_verified<V: Codec>(payload: &[u8]) -> V {
    V::decode_all(payload).expect("a verified payload decodes: decode(encode(x)) == x")
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

/// `Debug` prints the stats snapshot, not megabytes of artifacts.
impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .field("budget", &self.config.byte_budget)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::mem::ENTRY_OVERHEAD;
    use super::*;
    use asip_ir::Module;

    fn module(src: &str) -> Module {
        asip_tinyc::compile(src).unwrap()
    }

    fn bare(budget: u64, mask: u64) -> ArtifactCache {
        // Memory tier only: unit tests here must not pick up ASIP_CACHE_DIR.
        let config = CacheConfig {
            byte_budget: budget,
            hash_mask: mask,
            disk: None,
        };
        ArtifactCache::with_config(config)
    }

    /// An unbounded memory tier over a disk tier at `dir`.
    fn with_disk(dir: &Path) -> ArtifactCache {
        ArtifactCache::with_config(CacheConfig {
            byte_budget: u64::MAX,
            hash_mask: !0,
            disk: Some(DiskTierConfig::new(dir)),
        })
    }

    /// A fresh, empty directory unique to this test.
    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asip-cache-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store(cache: &ArtifactCache, key: &str, m: &Module) -> Result<Module, ToolchainError> {
        cache
            .get_or_compute(StageKind::Parse, &Key::from(key.as_bytes()), || {
                Ok(m.clone())
            })
            .map(Staged::into_value)
    }

    /// Payload + bookkeeping bytes one entry occupies in the memory tier.
    fn entry_bytes(key: &str, m: &Module) -> u64 {
        key.len() as u64 + m.encode_to_vec().len() as u64 + ENTRY_OVERHEAD
    }

    #[test]
    fn hit_returns_identical_artifact() {
        let cache = bare(u64::MAX, !0);
        let m = module("void main(int a) { emit(a + 1); }");
        let first = store(&cache, "k", &m).unwrap();
        let second = store(&cache, "k", &m).unwrap();
        assert_eq!(first, m);
        assert_eq!(second, m);
        let s = cache.stats();
        assert_eq!(s.parse.hits, 1);
        assert_eq!(s.parse.misses, 1);
        assert_eq!(s.evictions, 0);
        assert!(s.resident_bytes > 0);
        assert!(!s.has_disk);
        assert_eq!(s.mem.hits, 1);
        assert_eq!(s.mem.loads, 2);
        assert_eq!(s.mem.stores, 1);
    }

    #[test]
    fn forced_collisions_never_alias() {
        // hash_mask 0: every key lands in bucket 0; only the stored-key
        // comparison separates artifacts.
        let cache = bare(u64::MAX, 0);
        let a = module("void main(int a) { emit(a + 1); }");
        let b = module("void main(int a) { emit(a - 1); }");
        store(&cache, "ka", &a).unwrap();
        store(&cache, "kb", &b).unwrap();
        let back_a = store(&cache, "ka", &a).unwrap();
        let back_b = store(&cache, "kb", &b).unwrap();
        assert_eq!(back_a, a);
        assert_eq!(back_b, b);
        let s = cache.stats();
        assert_eq!(s.parse.misses, 2, "{s}");
        assert_eq!(s.parse.hits, 2, "{s}");
        assert_eq!(cache.len(), [2, 0, 0, 0, 0]);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let m = module("void main(int a) { emit(a); }");
        let bytes = entry_bytes("k1", &m) + 2;
        // Room for exactly two entries.
        let cache = bare(2 * bytes, !0);
        store(&cache, "k1", &m).unwrap();
        store(&cache, "k2", &m).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        // Touch k1 so k2 is the LRU victim.
        store(&cache, "k1", &m).unwrap();
        store(&cache, "k3", &m).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "{s}");
        assert!(s.resident_bytes <= cache.byte_budget(), "{s}");
        // k1 survived (hit), k2 was evicted (miss again).
        store(&cache, "k1", &m).unwrap();
        store(&cache, "k2", &m).unwrap();
        let s = cache.stats();
        assert_eq!(s.parse.hits, 2, "{s}");
        assert_eq!(s.parse.misses, 4, "{s}");
    }

    #[test]
    fn oversized_artifact_is_not_admitted_and_does_not_flush() {
        let small = module("void main(int a) { emit(a); }");
        let unit = entry_bytes("k1", &small) + 2;
        let cache = bare(3 * unit, !0);
        store(&cache, "k1", &small).unwrap();
        store(&cache, "k2", &small).unwrap();
        // Larger than the whole budget: returned to the caller but never
        // retained, and the resident entries stay hot.
        let mut big = module("int g[4096]; void main(int a) { emit(g[a]); }");
        big.globals[0].init = vec![7; 4096]; // make the encoding genuinely big
        assert!(entry_bytes("big", &big) > cache.byte_budget());
        let back = store(&cache, "big", &big).unwrap();
        assert_eq!(back, big);
        assert_eq!(cache.stats().evictions, 1, "oversized counts as evicted");
        store(&cache, "k1", &small).unwrap();
        store(&cache, "k2", &small).unwrap();
        let s = cache.stats();
        assert_eq!(s.parse.hits, 2, "small entries must survive: {s}");
        // The oversized artifact recomputes (it was never resident).
        store(&cache, "big", &big).unwrap();
        let s = cache.stats();
        assert_eq!(s.parse.misses, 4, "{s}");
        assert_eq!(s.evictions, 2, "{s}");
        assert!(s.resident_bytes <= cache.byte_budget(), "{s}");
    }

    #[test]
    fn zero_budget_disables_retention_but_stays_correct() {
        let cache = bare(0, !0);
        let m = module("void main(int a) { emit(a * 2); }");
        for _ in 0..3 {
            let back = store(&cache, "k", &m).unwrap();
            assert_eq!(back, m);
        }
        let s = cache.stats();
        assert_eq!(s.parse.hits, 0, "{s}");
        assert_eq!(s.parse.misses, 3, "{s}");
        assert_eq!(s.evictions, 3, "{s}");
        assert!(cache.is_empty());
        assert_eq!(s.resident_bytes, 0, "{s}");
    }

    #[test]
    fn clear_resets_budget_accounting() {
        let cache = bare(u64::MAX, !0);
        let m = module("void main(int a) { emit(a); }");
        store(&cache, "k", &m).unwrap();
        assert!(cache.resident_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn custom_tier_sees_write_through_and_serves_read_through() {
        let dir = tmp_dir("through");
        let cache = with_disk(&dir);
        let m = module("void main(int a) { emit(a + 3); }");

        // Miss: computed once, written through to both tiers.
        store(&cache, "k", &m).unwrap();
        assert_eq!(cache.stats().disk.stores, 1);

        // Memory hit: the disk tier is not consulted.
        store(&cache, "k", &m).unwrap();
        assert_eq!(cache.stats().disk.loads, 1);

        // Fresh cache sharing only the directory: read-through hit, and
        // the payload is promoted into the new memory tier.
        let cache2 = with_disk(&dir);
        let back = store(&cache2, "k", &m).unwrap();
        assert_eq!(back, m);
        let s = cache2.stats();
        assert_eq!(s.parse.hits, 1, "disk hit counts for the stage");
        assert_eq!(s.parse.misses, 0);
        assert_eq!(s.disk.hits, 1);
        assert_eq!(cache2.len(), [1, 0, 0, 0, 0], "promoted into memory");
        // Next lookup is a pure memory hit.
        store(&cache2, "k", &m).unwrap();
        assert_eq!(cache2.stats().disk.loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_payload_in_a_tier_degrades_to_recompute() {
        // A verified disk container whose payload is not a module.
        let dir = tmp_dir("undecodable");
        DiskStore::open(DiskTierConfig::new(&dir)).store(StageKind::Parse, b"k", &[0xff; 3]);
        let cache = with_disk(&dir);
        let m = module("void main(int a) { emit(a); }");
        let back = store(&cache, "k", &m).unwrap();
        assert_eq!(back, m, "garbage payload must recompute, not corrupt");
        let s = cache.stats();
        assert_eq!(s.parse.misses, 1, "{s}");
        assert_eq!(s.disk.stale_drops, 1, "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unverifiable_module_in_a_tier_degrades_to_recompute() {
        // A verified disk container holding a well-formed module encoding
        // that names a register at `num_vregs`: tables sized by
        // `num_vregs` must never see it.
        let dir = tmp_dir("unverifiable");
        let mut bad = module("void main(int a) { emit(a); }");
        bad.funcs[0].num_vregs = 0;
        assert!(asip_ir::func::verify(&bad).is_err());
        DiskStore::open(DiskTierConfig::new(&dir)).store(
            StageKind::Parse,
            b"k",
            &bad.encode_to_vec(),
        );
        let cache = with_disk(&dir);
        let m = module("void main(int a) { emit(a); }");
        let back = store(&cache, "k", &m).unwrap();
        assert_eq!(back, m, "an unverifiable module must recompute");
        let s = cache.stats();
        assert_eq!(s.parse.misses, 1, "{s}");
        assert_eq!(s.disk.stale_drops, 1, "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_hash_covers_length_and_seed() {
        // Zero-padded tails and empty keys must not collide.
        let keys: [&[u8]; 5] = [b"", b"\0", b"a", b"a\0", b"abcdefgh\0"];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(hash64(a, KEY_SEED), hash64(b, KEY_SEED), "{a:?} {b:?}");
            }
            assert_ne!(hash64(a, KEY_SEED), hash64(a, KEY_SEED + 1));
        }
        // Across word, lane and block boundaries: keys that differ only in
        // how many zero bytes end them, with and without a nonzero first
        // byte, all hash apart, and each key hashes apart under two seeds.
        let mut seen = std::collections::HashSet::new();
        for first in [0u8, 1] {
            for len in 0..=70 {
                let mut key = vec![0u8; len];
                if let Some(b) = key.first_mut() {
                    *b = first;
                }
                if first == 1 && len == 0 {
                    continue;
                }
                let h = hash64(&key, KEY_SEED);
                assert!(seen.insert(h), "first byte {first}, length {len}");
                assert_ne!(h, hash64(&key, KEY_SEED + 1), "length {len}");
            }
        }
    }

    #[test]
    fn two_threads_share_one_cache_without_crossing_payloads() {
        // Both threads store and load overlapping keys in every stage, in
        // rounds a barrier releases together: each round adds new keys
        // (both threads miss and race to store them) and revisits the old
        // ones (hits), walking in opposite directions.
        const PER_ROUND: usize = 12;
        const ROUNDS: usize = 4;
        let cache = bare(u64::MAX, !0);
        let barrier = std::sync::Barrier::new(2);
        let key = |k: usize| format!("key {k}").into_bytes();
        let value = |stage: StageKind, k: usize| {
            let mut v = key(k);
            v.resize(v.len() + (k * 7 + stage as usize) % 29, stage as u8);
            v
        };
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        barrier.wait();
                        let n = round * PER_ROUND;
                        for i in 0..n {
                            let k = if t == 0 { i } else { n - 1 - i };
                            for stage in StageKind::ALL {
                                let want = value(stage, k);
                                let got = cache
                                    .get_or_compute(stage, &Key::from(&key(k)[..]), || {
                                        Ok(want.clone())
                                    })
                                    .unwrap();
                                assert_eq!(got.payload()[..], want.encode_to_vec(), "{stage} {k}");
                                assert_eq!(got.into_value(), want, "{stage} {k}");
                            }
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        let keys = ROUNDS * PER_ROUND;
        let resident: u64 = (0..keys)
            .flat_map(|k| StageKind::ALL.map(|stage| (stage, k)))
            .map(|(stage, k)| {
                (key(k).len() + value(stage, k).encode_to_vec().len()) as u64 + ENTRY_OVERHEAD
            })
            .sum();
        assert_eq!(s.mem.entries, (5 * keys) as u64, "{s}");
        assert_eq!(s.mem.stores, (5 * keys) as u64, "{s}");
        assert_eq!(s.mem.resident_bytes, resident, "{s}");
        assert_eq!(s.evictions, 0, "{s}");
        let lookups = 2 * 5 * PER_ROUND * (1..=ROUNDS).sum::<usize>();
        assert_eq!(s.hits() + s.misses(), lookups as u64, "{s}");
        assert_eq!(cache.len(), [keys; 5]);
    }
}
