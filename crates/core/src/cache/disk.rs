//! The disk tier: a persistent directory of versioned entry files.
//!
//! # On-disk layout
//!
//! ```text
//! <cache_dir>/
//!   parse/      <h1><h2>.art     one file per entry; the name is the
//!   optimize/   …                stage key's 64-bit hash under two seeds
//!   profile/    …                (128 bits of name space)
//!   compile/    …
//!   simulate/   …
//! ```
//!
//! File names follow `hash64`, so a build whose hash differs misses the
//! entries an older build wrote, and those age out under the byte budget
//! like any cold entry; the entry format and
//! [`FORMAT_VERSION`](super::FORMAT_VERSION) do not depend on the hash.
//!
//! Each `.art` file is a versioned, self-describing container (the
//! `entry` module): magic, format version, stage kind, the **stage key's
//! bytes**, the artifact payload, and a trailing checksum. A load
//! re-verifies all of it, so a file-name collision, a renamed or truncated
//! file, garbage bytes or a stale format version can never surface a wrong
//! artifact — each is deleted, counted in [`TierStats::stale_drops`], and
//! silently recomputed. The owning cache then decodes the payload, and
//! [`DiskStore::invalidate`]s an entry whose payload does not decode.
//!
//! # Eviction: least recently used first, by size
//!
//! The store tracks total entry bytes and the entry count; when the bytes
//! exceed the configured budget, the oldest files (by modification time)
//! are deleted until the total fits. Loads re-touch their file's mtime, so
//! "oldest" approximates least-recently-*used*, not just
//! least-recently-written.
//!
//! # Failure model
//!
//! Every filesystem error degrades to a cache miss or a skipped write —
//! never an evaluation error. Writes go to a temporary file first and
//! `rename` into place, so concurrent sessions (or processes) sharing one
//! directory only ever observe complete entries.

use super::entry::{decode_entry, encode_entry};
use super::{hash64, DiskTierConfig, StageKind, TierStats, KEY_SEED};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Seed of the second half of an entry's file name.
const NAME_SEED_2: u64 = 0x9e37_79b9_7f4a_7c15;

/// Observability mirrors of the tier counters (the authoritative values
/// stay in [`TierStats`]; these feed the metrics exposition).
/// `cache.disk.stores` counts every store call, persisted or not.
static OBS_LOADS: asip_obs::Counter = asip_obs::Counter::new("cache.disk.loads");
static OBS_HITS: asip_obs::Counter = asip_obs::Counter::new("cache.disk.hits");
static OBS_STORES: asip_obs::Counter = asip_obs::Counter::new("cache.disk.stores");
static OBS_EVICTIONS: asip_obs::Counter = asip_obs::Counter::new("cache.disk.evictions");
static OBS_STALE_DROPS: asip_obs::Counter = asip_obs::Counter::new("cache.disk.stale_drops");
static OBS_TMP_RECLAIMED: asip_obs::Counter = asip_obs::Counter::new("cache.disk.tmp_reclaimed");

/// The persistent disk tier. See the [module docs](self).
pub(crate) struct DiskStore {
    config: DiskTierConfig,
    inner: Mutex<DiskInner>,
    hits: AtomicU64,
    loads: AtomicU64,
    stores: AtomicU64,
    stale_drops: AtomicU64,
    evictions: AtomicU64,
    tmp_reclaimed: AtomicU64,
}

/// The directory's size, approximate between rescans: other processes may
/// share it, so every eviction pass re-scans for ground truth first.
#[derive(Default)]
struct DiskInner {
    /// Total bytes of entry files.
    resident_bytes: u64,
    /// Number of entry files.
    entries: u64,
}

/// Process-wide sequence for unique temporary file names. Tmp names embed
/// the pid, which distinguishes *processes* sharing a cache directory; this
/// counter distinguishes *stores* (and threads) within one process — a
/// per-instance sequence would let two `DiskStore`s opened on the same
/// directory both write `.tmp-<pid>-1` and race each other into a torn
/// entry.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Open (or create) the store at `config.dir`.
    ///
    /// Scans existing entries to seed the size accounting and evicts
    /// oldest-first down to `config.byte_budget`. All I/O failures leave
    /// an inert store that misses on every load.
    pub(crate) fn open(config: DiskTierConfig) -> DiskStore {
        for stage in StageKind::ALL {
            let _ = fs::create_dir_all(config.dir.join(stage.name()));
        }
        let store = DiskStore {
            config,
            inner: Mutex::new(DiskInner::default()),
            hits: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tmp_reclaimed: AtomicU64::new(0),
        };
        store.open_sweep();
        store
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskInner> {
        self.inner
            .lock()
            .expect("no holder of the disk-tier lock panics")
    }

    fn path_for(&self, stage: StageKind, key: &[u8]) -> PathBuf {
        let h1 = hash64(key, KEY_SEED);
        let h2 = hash64(key, NAME_SEED_2);
        self.config
            .dir
            .join(stage.name())
            .join(format!("{h1:016x}{h2:016x}.art"))
    }

    /// Every entry file with its byte size and modification time.
    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        for stage in StageKind::ALL {
            let Ok(dir) = fs::read_dir(self.config.dir.join(stage.name())) else {
                continue;
            };
            for e in dir.flatten() {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "art") {
                    continue;
                }
                let Ok(meta) = e.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, meta.len(), mtime));
            }
        }
        out
    }

    /// Size accounting and eviction at open time, plus reclamation of
    /// temporary files leaked by a crashed writer. Live writers hold a
    /// `.tmp-*` file only for the instant between write and rename, so
    /// anything older than a minute is an orphan; racing a genuinely live
    /// one at worst skips that write (the documented failure model).
    fn open_sweep(&self) {
        if let Ok(rd) = fs::read_dir(&self.config.dir) {
            let cutoff = SystemTime::now()
                .checked_sub(Duration::from_secs(60))
                .unwrap_or(SystemTime::UNIX_EPOCH);
            for e in rd.flatten() {
                let name = e.file_name();
                let is_tmp = name.to_string_lossy().starts_with(".tmp-");
                let is_old = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .map(|t| t < cutoff)
                    .unwrap_or(true);
                if is_tmp && is_old && fs::remove_file(e.path()).is_ok() {
                    self.tmp_reclaimed.fetch_add(1, Ordering::Relaxed);
                    OBS_TMP_RECLAIMED.add(1);
                }
            }
        }
        self.evict_oldest(self.scan());
    }

    /// Take `files` as the directory's contents, then delete oldest-first
    /// until the total fits the budget.
    fn evict_oldest(&self, mut files: Vec<(PathBuf, u64, SystemTime)>) {
        files.sort_by_key(|(_, _, mtime)| *mtime);
        let mut total: u64 = files.iter().map(|(_, len, _)| *len).sum();
        let mut entries = files.len() as u64;
        let mut evicted = 0u64;
        for (path, len, _) in files {
            if total <= self.config.byte_budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                entries -= 1;
                evicted += 1;
            }
        }
        *self.lock() = DiskInner {
            resident_bytes: total,
            entries,
        };
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            OBS_EVICTIONS.add(evicted);
        }
    }

    /// Delete a rejected entry file, accounting for its `len` bytes.
    fn drop_stale(&self, path: &Path, len: u64) {
        let mut span = asip_obs::span("cache", "disk");
        span.note("stale-drop");
        if fs::remove_file(path).is_ok() {
            let mut inner = self.lock();
            inner.resident_bytes = inner.resident_bytes.saturating_sub(len);
            inner.entries = inner.entries.saturating_sub(1);
        }
        self.stale_drops.fetch_add(1, Ordering::Relaxed);
        OBS_STALE_DROPS.add(1);
    }

    /// Look up the payload stored for (stage, key); `None` on a miss or an
    /// entry that fails verification.
    pub(crate) fn load(&self, stage: StageKind, key: &[u8]) -> Option<Arc<[u8]>> {
        OBS_LOADS.add(1);
        self.loads.fetch_add(1, Ordering::Relaxed);
        let mut span = asip_obs::span("cache", "disk");
        span.note("load");
        let path = self.path_for(stage, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return None, // not found or unreadable: plain miss
        };
        match decode_entry(&bytes, stage, key) {
            Ok(payload) => {
                // Re-touch so eviction approximates LRU. Best-effort.
                if let Ok(f) = fs::File::options().write(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                OBS_HITS.add(1);
                Some(Arc::from(payload))
            }
            Err(_) => {
                // Truncated, corrupt, stale format, or a key whose file
                // name collided: drop it and recompute.
                self.drop_stale(&path, bytes.len() as u64);
                None
            }
        }
    }

    /// Store a payload for (stage, key), replacing any entry already there.
    pub(crate) fn store(&self, stage: StageKind, key: &[u8], payload: &[u8]) {
        OBS_STORES.add(1);
        let mut span = asip_obs::span("cache", "disk");
        span.note("store");
        let entry = encode_entry(stage, key, payload);
        if entry.len() as u64 > self.config.byte_budget {
            // An entry that can never fit is not persisted at all.
            self.evictions.fetch_add(1, Ordering::Relaxed);
            OBS_EVICTIONS.add(1);
            return;
        }
        let path = self.path_for(stage, key);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .config
            .dir
            .join(format!(".tmp-{}-{}", std::process::id(), seq));
        if fs::write(&tmp, &entry).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let replaced = fs::metadata(&path).ok().map(|m| m.len());
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        let over = {
            let mut inner = self.lock();
            inner.resident_bytes = inner
                .resident_bytes
                .saturating_sub(replaced.unwrap_or(0))
                .saturating_add(entry.len() as u64);
            inner.entries += u64::from(replaced.is_none());
            inner.resident_bytes > self.config.byte_budget
        };
        if over {
            // Re-scan for ground truth (other processes may share the
            // directory), then delete oldest-first.
            self.evict_oldest(self.scan());
        }
    }

    /// Delete the entry for (stage, key) as stale: its container verified,
    /// but its payload did not decode.
    pub(crate) fn invalidate(&self, stage: StageKind, key: &[u8]) {
        let path = self.path_for(stage, key);
        let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        self.drop_stale(&path, len);
    }

    /// Delete every entry and reset the tier's counters.
    pub(crate) fn clear(&self) {
        for (path, _, _) in self.scan() {
            let _ = fs::remove_file(path);
        }
        *self.lock() = DiskInner::default();
        for c in [
            &self.hits,
            &self.loads,
            &self.stores,
            &self.stale_drops,
            &self.evictions,
            &self.tmp_reclaimed,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// This tier's counters. Reads no directory: the byte and entry
    /// counts are kept as the store changes them.
    pub(crate) fn stats(&self) -> TierStats {
        let inner = self.lock();
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            tmp_reclaimed: self.tmp_reclaimed.load(Ordering::Relaxed),
            resident_bytes: inner.resident_bytes,
            entries: inner.entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asip-diskstore-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persists_across_store_instances() {
        let dir = tmp_dir("persist");
        let a = DiskStore::open(DiskTierConfig::new(&dir));
        a.store(StageKind::Parse, b"key-1", &payload(b"payload-1"));
        assert_eq!(
            a.load(StageKind::Parse, b"key-1").as_deref(),
            Some(&b"payload-1"[..])
        );
        drop(a);
        let b = DiskStore::open(DiskTierConfig::new(&dir));
        assert_eq!(
            b.load(StageKind::Parse, b"key-1").as_deref(),
            Some(&b"payload-1"[..])
        );
        assert_eq!(b.load(StageKind::Compile, b"key-1"), None, "per-stage");
        assert_eq!(b.stats().hits, 1);
        assert!(b.stats().resident_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_file_fails_key_check_and_is_dropped() {
        let dir = tmp_dir("rename");
        let s = DiskStore::open(DiskTierConfig::new(&dir));
        s.store(StageKind::Compile, b"key-a", &payload(b"artifact-a"));
        // Masquerade key-a's entry as key-b's.
        let a = s.path_for(StageKind::Compile, b"key-a");
        let b = s.path_for(StageKind::Compile, b"key-b");
        fs::rename(&a, &b).unwrap();
        assert_eq!(s.load(StageKind::Compile, b"key-b"), None);
        assert_eq!(s.stats().stale_drops, 1);
        assert!(!b.exists(), "the masquerading file is deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_eviction_drops_oldest_first() {
        let dir = tmp_dir("evict");
        let probe = encode_entry(StageKind::Parse, b"k00", b"xxxxxxxx");
        let unit = probe.len() as u64;
        let s = DiskStore::open(DiskTierConfig {
            dir: dir.clone(),
            byte_budget: 3 * unit + unit / 2,
        });
        for i in 0..6 {
            let key = format!("k{i:02}");
            s.store(StageKind::Parse, key.as_bytes(), &payload(b"xxxxxxxx"));
            // Each store adds an entry, until eviction keeps three.
            assert_eq!(s.stats().entries, (i + 1).min(3), "{}", s.stats());
            // mtime granularity: space the writes out.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let t = s.stats();
        assert!(t.evictions >= 2, "{t}");
        assert!(t.resident_bytes <= 3 * unit + unit / 2, "{t}");
        // A store to a resident key replaces its entry.
        s.store(StageKind::Parse, b"k05", &payload(b"xxxxxxxx"));
        assert_eq!(s.stats().entries, 3);
        // A stale drop deletes one.
        fs::write(s.path_for(StageKind::Parse, b"k04"), b"garbage").unwrap();
        assert!(s.load(StageKind::Parse, b"k04").is_none());
        assert_eq!(s.stats().entries, 2);
        // The newest entry survived; the oldest did not.
        assert!(s.load(StageKind::Parse, b"k05").is_some());
        assert!(s.load(StageKind::Parse, b"k00").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_reclaimed_at_open() {
        let dir = tmp_dir("tmpreclaim");
        fs::create_dir_all(&dir).unwrap();
        // A crashed writer's leftover, backdated past the liveness window.
        let orphan = dir.join(".tmp-999-7");
        fs::write(&orphan, b"half-written entry").unwrap();
        let f = fs::File::options().write(true).open(&orphan).unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1))
            .unwrap();
        drop(f);
        let s = DiskStore::open(DiskTierConfig::new(&dir));
        assert!(!orphan.exists(), "open must reclaim orphaned tmp files");
        assert_eq!(
            s.stats().tmp_reclaimed,
            1,
            "the reclaimed orphan is counted in TierStats"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_key_never_tear_an_entry() {
        // Two independently opened stores on one directory (the shard
        // executor's sharing pattern) hammer the same key from several
        // threads each. Every interleaved load must return one of the
        // *complete* payloads — a torn entry would fail verification and
        // count a stale drop.
        let dir = tmp_dir("hammer");
        let a = DiskStore::open(DiskTierConfig::new(&dir));
        let b = DiskStore::open(DiskTierConfig::new(&dir));
        let payload_for = |i: u64| payload(&vec![(i & 0xff) as u8; 4096 + (i % 7) as usize]);
        std::thread::scope(|scope| {
            for (store, salt) in [(&a, 0u64), (&b, 1000u64)] {
                for t in 0..2u64 {
                    scope.spawn(move || {
                        for i in 0..50 {
                            let v = salt + t * 100 + i;
                            store.store(StageKind::Simulate, b"hot-key", &payload_for(v));
                            if let Some(got) = store.load(StageKind::Simulate, b"hot-key") {
                                assert!(
                                    got.len() >= 4096 && got.len() < 4103,
                                    "unexpected payload shape: {} bytes",
                                    got.len()
                                );
                                assert!(got.iter().all(|&x| x == got[0]), "torn payload");
                            }
                        }
                    });
                }
            }
        });
        for s in [&a, &b] {
            let t = s.stats();
            assert_eq!(t.stale_drops, 0, "no load may ever see a torn entry: {t}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_is_an_inert_tier() {
        // A path that cannot be created (parent is a file).
        let file = std::env::temp_dir().join(format!("asip-notdir-{}", std::process::id()));
        fs::write(&file, b"x").unwrap();
        let s = DiskStore::open(DiskTierConfig::new(file.join("sub")));
        s.store(StageKind::Parse, b"k", &payload(b"payload"));
        assert_eq!(s.load(StageKind::Parse, b"k"), None);
        let _ = fs::remove_file(&file);
    }
}
