//! The memory tier: the in-process, LRU byte-budgeted store.
//!
//! Payloads are shared `Arc<[u8]>` buffers in buckets indexed by the
//! key's 64-bit hash ([`Key::hash`], masked by
//! [`CacheConfig::hash_mask`](super::CacheConfig::hash_mask)), computed
//! when the key was built. Each entry keeps its key, compared exactly on
//! every probe, so a hash collision degrades to a bucket scan, never a
//! wrong artifact. A hit holds the tier's lock for the bucket lookup, the
//! key compare and a recency stamp, and clones the `Arc`, not the bytes.
//!
//! One global least-recently-used order across all stages enforces the
//! byte budget, kept lazily but exactly: every store and hit stamps its
//! entry with the next tick, and the eviction queue holds each entry once,
//! under the tick it was queued at. Eviction pops the coldest queued
//! entry; one stamped since is queued again at its stamp, and one that
//! was not is the least recently used entry, so it goes. A hit therefore
//! never touches the queue. An entry larger than the whole budget is never
//! admitted — flushing every resident entry for an artifact that cannot
//! stay would be pure churn — but still counts as an eviction so the
//! non-retention shows up in [`TierStats`].
//!
//! Only the owning [`ArtifactCache`](super::ArtifactCache) writes this
//! tier, and only bytes it encoded or decode-checked, so the cache serves
//! a hit without decoding it.

use super::{Key, Payload, StageKind, TierStats};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
    /// The key, compared exactly on every bucket probe.
    key: Key,
    payload: Payload,
    /// The tick the entry was stored at; unique, so it names the entry.
    id: u64,
    /// The tick of the entry's last store or hit.
    tick: u64,
}

/// One stage's hash-indexed store. Buckets hold every entry whose masked
/// hash collides; correctness never depends on hash uniqueness.
#[derive(Default)]
struct StageMap {
    buckets: HashMap<u64, Vec<Entry>>,
}

impl StageMap {
    fn find(&mut self, hash: u64, key: &Key) -> Option<&mut Entry> {
        self.buckets
            .get_mut(&hash)?
            .iter_mut()
            .find(|e| e.key == *key)
    }

    fn insert(&mut self, hash: u64, entry: Entry) {
        self.buckets.entry(hash).or_default().push(entry);
    }

    fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

/// Where a queued entry lives, for its eviction.
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
    /// Eviction queue: each entry once, under the tick it was queued at,
    /// which is at most its current tick; the first entry is coldest.
    queue: BTreeMap<u64, Loc>,
    next_tick: u64,
    resident_bytes: u64,
}

impl Inner {
    /// The next recency tick.
    fn tick(&mut self) -> u64 {
        self.next_tick += 1;
        self.next_tick
    }

    /// Evict the least recently used entry; returns false when the tier is
    /// empty. Every other entry is queued under a later tick than the
    /// popped one, and no entry's tick is below the tick it is queued
    /// under, so a popped entry not stamped since is the coldest.
    fn evict_one(&mut self) -> bool {
        const SYNC: &str = "the eviction queue and the stage maps hold the same entries";
        while let Some((queued, loc)) = self.queue.pop_first() {
            let map = &mut self.maps[loc.stage];
            let bucket = map.buckets.get_mut(&loc.hash).expect(SYNC);
            let i = bucket.iter().position(|e| e.id == loc.id).expect(SYNC);
            let tick = bucket[i].tick;
            if tick != queued {
                // Hit since it was queued: queue it again as of that hit.
                self.queue.insert(tick, loc);
                continue;
            }
            bucket.swap_remove(i);
            if bucket.is_empty() {
                map.buckets.remove(&loc.hash);
            }
            self.resident_bytes -= loc.bytes;
            return true;
        }
        false
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

    fn hash(&self, key: &Key) -> u64 {
        key.hash() & self.hash_mask
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no holder of the memory-tier lock panics")
    }

    /// Look up the payload stored for (stage, key); `None` on miss.
    pub(crate) fn load(&self, stage: StageKind, key: &Key) -> Option<Payload> {
        OBS_LOADS.add(1);
        self.loads.fetch_add(1, Ordering::Relaxed);
        let mut span = asip_obs::span("cache", "mem");
        span.note("load");
        let hash = self.hash(key);
        let mut inner = self.lock();
        let tick = inner.tick();
        let entry = inner.maps[stage as usize].find(hash, key)?;
        entry.tick = tick;
        let payload = entry.payload.clone();
        drop(inner);
        self.hits.fetch_add(1, Ordering::Relaxed);
        OBS_HITS.add(1);
        Some(payload)
    }

    /// Store a payload for (stage, key): bytes the owning cache encoded or
    /// decode-checked.
    pub(crate) fn store(&self, stage: StageKind, key: &Key, payload: &Payload) {
        OBS_STORES.add(1);
        let mut span = asip_obs::span("cache", "mem");
        span.note("store");
        let hash = self.hash(key);
        let bytes = key.len() as u64 + payload.len() as u64 + ENTRY_OVERHEAD;
        let mut inner = self.lock();
        let tick = inner.tick();
        // First insert wins: a racing worker (or a promotion racing a
        // computed store) may have stored this key already; the payloads
        // are identical deterministic encodings, so keep the resident one.
        if let Some(e) = inner.maps[stage as usize].find(hash, key) {
            e.tick = tick;
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
        inner.maps[stage as usize].insert(
            hash,
            Entry {
                key: key.clone(),
                payload: payload.clone(),
                id: tick,
                tick,
            },
        );
        let loc = Loc {
            stage: stage as usize,
            hash,
            id: tick,
            bytes,
        };
        inner.queue.insert(tick, loc);
        inner.resident_bytes += bytes;
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

    fn payload(bytes: &[u8]) -> Payload {
        Payload::new(bytes.into())
    }

    fn key(bytes: &[u8]) -> Key {
        Key::from(bytes)
    }

    #[test]
    fn store_load_and_clear() {
        let s = MemoryStore::new(u64::MAX, !0);
        assert_eq!(s.load(StageKind::Parse, &key(b"k")), None);
        s.store(StageKind::Parse, &key(b"k"), &payload(b"payload"));
        assert_eq!(
            s.load(StageKind::Parse, &key(b"k")).as_deref(),
            Some(&b"payload"[..])
        );
        // Same key, different stage: distinct entries.
        assert_eq!(s.load(StageKind::Compile, &key(b"k")), None);
        s.clear();
        assert_eq!(s.load(StageKind::Parse, &key(b"k")), None);
        let t = s.stats();
        assert_eq!(t.entries, 0);
        assert_eq!(t.resident_bytes, 0);
    }

    #[test]
    fn first_insert_wins_on_duplicate_store() {
        let s = MemoryStore::new(u64::MAX, !0);
        s.store(StageKind::Parse, &key(b"k"), &payload(b"one"));
        s.store(StageKind::Parse, &key(b"k"), &payload(b"one"));
        let t = s.stats();
        assert_eq!(t.stores, 1);
        assert_eq!(t.entries, 1);
    }

    #[test]
    fn hits_share_the_stored_payload() {
        let s = MemoryStore::new(u64::MAX, !0);
        let p = payload(b"bytes");
        s.store(StageKind::Parse, &key(b"k"), &p);
        let hit = s.load(StageKind::Parse, &key(b"k")).unwrap();
        assert!(
            std::ptr::eq(hit.as_ptr(), p.as_ptr()),
            "a hit shares the stored buffer"
        );
    }

    /// The reference the tier must match: strict LRU over (stage, key)
    /// with the tier's byte accounting and counters.
    #[derive(Default)]
    struct ModelLru {
        budget: u64,
        /// Resident entries, least recently stored or hit first.
        order: Vec<(StageKind, Vec<u8>, Vec<u8>)>,
        resident_bytes: u64,
        hits: u64,
        loads: u64,
        stores: u64,
        evictions: u64,
    }

    impl ModelLru {
        fn bytes(key: &[u8], payload: &[u8]) -> u64 {
            (key.len() + payload.len()) as u64 + ENTRY_OVERHEAD
        }

        fn position(&self, stage: StageKind, key: &[u8]) -> Option<usize> {
            self.order.iter().position(|e| e.0 == stage && e.1 == key)
        }

        /// Move entry `i` to the most recent end; returns its payload.
        fn touch(&mut self, i: usize) -> Vec<u8> {
            let e = self.order.remove(i);
            let payload = e.2.clone();
            self.order.push(e);
            payload
        }

        fn load(&mut self, stage: StageKind, key: &[u8]) -> Option<Vec<u8>> {
            self.loads += 1;
            let i = self.position(stage, key)?;
            self.hits += 1;
            Some(self.touch(i))
        }

        fn store(&mut self, stage: StageKind, key: &[u8], payload: &[u8]) {
            if let Some(i) = self.position(stage, key) {
                self.touch(i);
                return;
            }
            let bytes = Self::bytes(key, payload);
            if bytes > self.budget {
                self.evictions += 1;
                return;
            }
            self.stores += 1;
            self.order.push((stage, key.to_vec(), payload.to_vec()));
            self.resident_bytes += bytes;
            while self.resident_bytes > self.budget {
                let (_, k, p) = self.order.remove(0);
                self.resident_bytes -= Self::bytes(&k, &p);
                self.evictions += 1;
            }
        }
    }

    /// Whether (stage, key) is resident, read without stamping recency.
    fn resident(s: &MemoryStore, stage: StageKind, key: &[u8]) -> bool {
        let key = Key::from(key);
        let hash = s.hash(&key);
        s.lock().maps[stage as usize].find(hash, &key).is_some()
    }

    #[test]
    fn eviction_order_matches_a_reference_lru() {
        const STAGES: [StageKind; 3] = [StageKind::Parse, StageKind::Compile, StageKind::Simulate];
        const KEYS: usize = 5;
        let key = |i: usize| format!("key-{}", "k".repeat(i)).into_bytes();
        for seed in 1..=12u64 {
            // splitmix64: a fixed, seeded sequence of operations.
            let mut state = seed;
            let mut next = |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % n) as usize
            };
            // Room for three or four entries; odd seeds force every key
            // into a few buckets.
            let budget = 4 * (ENTRY_OVERHEAD + 16);
            let mask = if seed % 2 == 1 { 0b11 } else { !0 };
            let s = MemoryStore::new(budget, mask);
            let mut model = ModelLru {
                budget,
                ..ModelLru::default()
            };
            for step in 0..1_500 {
                let stage = STAGES[next(STAGES.len() as u64)];
                let k = key(next(KEYS as u64));
                let what = match next(10) {
                    0..=2 => {
                        // A payload of its own length per step, so a
                        // duplicate store carries different bytes.
                        let p = vec![step as u8; next(24)];
                        s.store(stage, &Key::from(&k[..]), &payload(&p));
                        model.store(stage, &k, &p);
                        "store"
                    }
                    3 => {
                        // Store again over a resident key: the first
                        // payload stays and the entry becomes the newest.
                        if let Some((stage, k, _)) = model
                            .order
                            .get(next(model.order.len().max(1) as u64))
                            .cloned()
                        {
                            s.store(stage, &Key::from(&k[..]), &payload(b"second"));
                            model.store(stage, &k, b"second");
                        }
                        "duplicate store"
                    }
                    4 => {
                        let p = vec![1u8; budget as usize];
                        s.store(stage, &Key::from(&k[..]), &payload(&p));
                        model.store(stage, &k, &p);
                        "oversize store"
                    }
                    _ => {
                        let got = s.load(stage, &Key::from(&k[..]));
                        let want = model.load(stage, &k);
                        assert_eq!(got.as_deref(), want.as_deref(), "seed {seed} step {step}");
                        "load"
                    }
                };
                let t = s.stats();
                let at = format!("seed {seed} step {step} after {what}");
                assert_eq!(t.hits, model.hits, "{at}");
                assert_eq!(t.loads, model.loads, "{at}");
                assert_eq!(t.stores, model.stores, "{at}");
                assert_eq!(t.evictions, model.evictions, "{at}");
                assert_eq!(t.resident_bytes, model.resident_bytes, "{at}");
                assert_eq!(t.entries, model.order.len() as u64, "{at}");
                for stage in STAGES {
                    for i in 0..KEYS {
                        let k = key(i);
                        let want = model.position(stage, &k).is_some();
                        assert_eq!(resident(&s, stage, &k), want, "{at}: {stage} {i}");
                    }
                }
            }
            assert!(model.evictions > 100 && model.hits > 100, "seed {seed}");
        }
    }
}
