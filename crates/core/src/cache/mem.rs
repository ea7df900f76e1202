//! The memory tier: the in-process, LRU byte-budgeted store.
//!
//! Payloads are shared `Arc<[u8]>` buffers in buckets indexed by the
//! key's 64-bit hash (computed eight bytes at a time, then masked by
//! [`CacheConfig::hash_mask`](super::CacheConfig::hash_mask)). Each entry
//! keeps its key bytes, compared exactly on every probe, so a hash
//! collision degrades to a bucket scan, never a wrong artifact. A hit
//! clones the `Arc` under the lock, not the bytes. One global
//! least-recently-used queue across all stages enforces the byte budget.
//! An entry larger than the whole budget is never admitted — flushing
//! every resident entry for an artifact that cannot stay would be pure
//! churn — but still counts as an eviction so the non-retention shows up
//! in [`TierStats`].
//!
//! Only the owning [`ArtifactCache`](super::ArtifactCache) writes this
//! tier, and only bytes it encoded or decode-checked, so the cache serves
//! a hit without decoding it.

use super::{hash64, StageKind, TierStats, KEY_SEED};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed per-entry bookkeeping overhead added to every size estimate.
pub(crate) const ENTRY_OVERHEAD: u64 = 96;

/// Observability mirrors of the tier counters (the authoritative values
/// stay in [`TierStats`]; these feed the metrics exposition).
/// `cache.mem.stores` counts every store call, admitted or not.
static OBS_LOADS: asip_obs::Counter = asip_obs::Counter::new("cache.mem.loads");
static OBS_HITS: asip_obs::Counter = asip_obs::Counter::new("cache.mem.hits");
static OBS_STORES: asip_obs::Counter = asip_obs::Counter::new("cache.mem.stores");
static OBS_EVICTIONS: asip_obs::Counter = asip_obs::Counter::new("cache.mem.evictions");

struct Entry {
    /// The key bytes, compared exactly on every bucket probe.
    key: Box<[u8]>,
    payload: Arc<[u8]>,
    id: u64,
}

/// One stage's hash-indexed store. Buckets hold every entry whose masked
/// hash collides; correctness never depends on hash uniqueness.
#[derive(Default)]
struct StageMap {
    buckets: HashMap<u64, Vec<Entry>>,
}

impl StageMap {
    fn find(&self, hash: u64, key: &[u8]) -> Option<&Entry> {
        self.buckets
            .get(&hash)?
            .iter()
            .find(|e| e.key.as_ref() == key)
    }

    fn insert(&mut self, hash: u64, entry: Entry) {
        self.buckets.entry(hash).or_default().push(entry);
    }

    fn remove_id(&mut self, hash: u64, id: u64) -> Option<Entry> {
        let bucket = self.buckets.get_mut(&hash)?;
        let i = bucket.iter().position(|e| e.id == id)?;
        let e = bucket.swap_remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&hash);
        }
        Some(e)
    }

    fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

/// Where an LRU queue entry lives, for typed removal on eviction.
#[derive(Clone, Copy)]
struct Loc {
    stage: usize,
    hash: u64,
    id: u64,
    bytes: u64,
}

#[derive(Default)]
struct Inner {
    maps: [StageMap; 5],
    /// Recency queue: tick → entry location; the first entry is coldest.
    lru: BTreeMap<u64, Loc>,
    /// Entry id → its current tick in `lru` (moved on every touch).
    tick_of: HashMap<u64, u64>,
    next_tick: u64,
    next_id: u64,
    resident_bytes: u64,
}

impl Inner {
    fn touch(&mut self, id: u64) {
        if let Some(old) = self.tick_of.get(&id).copied() {
            if let Some(loc) = self.lru.remove(&old) {
                let tick = self.next_tick;
                self.next_tick += 1;
                self.lru.insert(tick, loc);
                self.tick_of.insert(id, tick);
            }
        }
    }

    fn remember(&mut self, loc: Loc) {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.lru.insert(tick, loc);
        self.tick_of.insert(loc.id, tick);
        self.resident_bytes += loc.bytes;
    }

    fn remove(&mut self, loc: Loc) -> bool {
        self.tick_of.remove(&loc.id);
        let removed = self.maps[loc.stage].remove_id(loc.hash, loc.id).is_some();
        self.resident_bytes = self.resident_bytes.saturating_sub(loc.bytes);
        removed
    }

    /// Evict the coldest entry; returns false when the cache is empty.
    fn evict_one(&mut self) -> bool {
        let Some((tick, loc)) = self.lru.pop_first() else {
            return false;
        };
        debug_assert_eq!(self.tick_of.get(&loc.id), Some(&tick));
        let removed = self.remove(loc);
        debug_assert!(removed, "LRU queue and stage maps must stay in sync");
        true
    }
}

/// The in-process memory tier. See the [module docs](self).
pub(crate) struct MemoryStore {
    byte_budget: u64,
    hash_mask: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    loads: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

impl MemoryStore {
    /// An empty store bounded to `byte_budget` resident bytes, hashing keys
    /// under `hash_mask` (use `!0` outside of collision tests).
    pub(crate) fn new(byte_budget: u64, hash_mask: u64) -> MemoryStore {
        MemoryStore {
            byte_budget,
            hash_mask,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn hash(&self, key: &[u8]) -> u64 {
        hash64(key, KEY_SEED) & self.hash_mask
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no holder of the memory-tier lock panics")
    }

    /// Look up the payload stored for (stage, key); `None` on miss.
    pub(crate) fn load(&self, stage: StageKind, key: &[u8]) -> Option<Arc<[u8]>> {
        OBS_LOADS.add(1);
        self.loads.fetch_add(1, Ordering::Relaxed);
        let mut span = asip_obs::span("cache", "mem");
        span.note("load");
        let hash = self.hash(key);
        let mut inner = self.lock();
        let (id, payload) = inner.maps[stage as usize]
            .find(hash, key)
            .map(|e| (e.id, e.payload.clone()))?;
        inner.touch(id);
        drop(inner);
        self.hits.fetch_add(1, Ordering::Relaxed);
        OBS_HITS.add(1);
        Some(payload)
    }

    /// Store a payload for (stage, key): bytes the owning cache encoded or
    /// decode-checked.
    pub(crate) fn store(&self, stage: StageKind, key: &[u8], payload: &Arc<[u8]>) {
        OBS_STORES.add(1);
        let mut span = asip_obs::span("cache", "mem");
        span.note("store");
        let hash = self.hash(key);
        let bytes = key.len() as u64 + payload.len() as u64 + ENTRY_OVERHEAD;
        let mut inner = self.lock();
        // First insert wins: a racing worker (or a promotion racing a
        // computed store) may have stored this key already; the payloads
        // are identical deterministic encodings, so keep the resident one.
        if let Some(e) = inner.maps[stage as usize].find(hash, key) {
            let id = e.id;
            inner.touch(id);
            return;
        }
        if bytes > self.byte_budget {
            // Never admitted: would flush every other resident entry for
            // nothing. Counted as an eviction so the non-retention shows
            // up in the stats.
            drop(inner);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            OBS_EVICTIONS.add(1);
            return;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.maps[stage as usize].insert(
            hash,
            Entry {
                key: key.into(),
                payload: payload.clone(),
                id,
            },
        );
        inner.remember(Loc {
            stage: stage as usize,
            hash,
            id,
            bytes,
        });
        let mut evicted = 0u64;
        while inner.resident_bytes > self.byte_budget && inner.evict_one() {
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            OBS_EVICTIONS.add(evicted);
        }
    }

    /// Drop every entry and reset the tier's counters.
    pub(crate) fn clear(&self) {
        *self.lock() = Inner::default();
        for c in [&self.hits, &self.loads, &self.stores, &self.evictions] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// This tier's counters.
    pub(crate) fn stats(&self) -> TierStats {
        let inner = self.lock();
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: inner.resident_bytes,
            entries: inner.maps.iter().map(|m| m.len() as u64).sum(),
            ..TierStats::default()
        }
    }

    /// Entries currently held, per stage (indexed by `StageKind as usize`).
    pub(crate) fn stage_entries(&self) -> [u64; 5] {
        let inner = self.lock();
        std::array::from_fn(|i| inner.maps[i].len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    #[test]
    fn store_load_and_clear() {
        let s = MemoryStore::new(u64::MAX, !0);
        assert_eq!(s.load(StageKind::Parse, b"k"), None);
        s.store(StageKind::Parse, b"k", &payload(b"payload"));
        assert_eq!(
            s.load(StageKind::Parse, b"k").as_deref(),
            Some(&b"payload"[..])
        );
        // Same key, different stage: distinct entries.
        assert_eq!(s.load(StageKind::Compile, b"k"), None);
        s.clear();
        assert_eq!(s.load(StageKind::Parse, b"k"), None);
        let t = s.stats();
        assert_eq!(t.entries, 0);
        assert_eq!(t.resident_bytes, 0);
    }

    #[test]
    fn first_insert_wins_on_duplicate_store() {
        let s = MemoryStore::new(u64::MAX, !0);
        s.store(StageKind::Parse, b"k", &payload(b"one"));
        s.store(StageKind::Parse, b"k", &payload(b"one"));
        let t = s.stats();
        assert_eq!(t.stores, 1);
        assert_eq!(t.entries, 1);
    }

    #[test]
    fn hits_share_the_stored_payload() {
        let s = MemoryStore::new(u64::MAX, !0);
        let p = payload(b"bytes");
        s.store(StageKind::Parse, b"k", &p);
        let hit = s.load(StageKind::Parse, b"k").unwrap();
        assert!(Arc::ptr_eq(&hit, &p), "a hit shares the stored buffer");
    }
}
