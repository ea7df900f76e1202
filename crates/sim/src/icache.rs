//! Set-associative instruction cache model with LRU replacement.

use asip_isa::ICacheConfig;

/// An instruction-cache model. Data is not stored — only tags — since the
/// simulator always has the program at hand; the cache exists to charge
/// realistic miss penalties, which is what the "visible instruction
/// compression" experiment needs.
#[derive(Debug, Clone)]
pub struct ICache {
    cfg: ICacheConfig,
    sets: usize,
    ways: usize,
    /// Flat tag store, `ways` entries per set: `(tag, last-used tick)`;
    /// tick 0 means the way is empty. One contiguous allocation instead of
    /// a `Vec` per set — the touch path is on every simulated fetch.
    tags: Vec<(u64, u64)>,
    /// One-entry MRU: the line (and its way) the previous touch resolved
    /// to. Straight-line code touches the same line for several fetches in
    /// a row, and the fast path updates exactly the same state (tick,
    /// stamp, hit counter) the full probe would.
    last_line: u64,
    last_way: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// Build a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if line size or total size is zero or not a power of two, or
    /// if the configuration has fewer lines than ways.
    pub fn new(cfg: ICacheConfig) -> ICache {
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes > 0);
        assert!(cfg.size_bytes.is_power_of_two() && cfg.size_bytes > 0);
        let lines = (cfg.size_bytes / cfg.line_bytes) as usize;
        let ways = cfg.ways.max(1) as usize;
        assert!(lines >= ways, "cache must have at least `ways` lines");
        let sets = lines / ways;
        ICache {
            cfg,
            sets,
            ways,
            tags: vec![(0, 0); sets * ways],
            last_line: u64::MAX,
            last_way: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Access all lines covering `[addr, addr+len)`; returns the number of
    /// misses incurred. Convenience wrapper over [`ICache::access_lines`]
    /// for callers that have not precomputed the line span.
    pub fn access(&mut self, addr: u32, len: u32) -> u32 {
        let line = u64::from(self.cfg.line_bytes);
        let first = u64::from(addr) / line;
        let last = (u64::from(addr) + u64::from(len.max(1)) - 1) / line;
        self.access_lines(first, last)
    }

    /// Access the inclusive line-number span `[first, last]`; returns the
    /// number of misses incurred. The block engine ([`crate::block`])
    /// computes every pc's span once at decode time and calls this
    /// directly, so the per-fetch address arithmetic (and the per-fetch
    /// byte-size recomputation that fed it) is gone from its cycle loops.
    #[inline]
    pub fn access_lines(&mut self, first: u64, last: u64) -> u32 {
        let mut misses = 0;
        for l in first..=last {
            if !self.touch(l) {
                misses += 1;
            }
        }
        misses
    }

    /// Touch one line (by line number); returns hit?
    #[inline]
    fn touch(&mut self, lineno: u64) -> bool {
        // MRU fast path: the immediately previous touch resolved this very
        // line, so it is still resident at `last_way` (nothing has touched
        // the cache in between). Updates the identical state the full
        // probe would: tick advances, the way's stamp becomes the new
        // tick, the hit counts.
        if lineno == self.last_line {
            self.tick += 1;
            self.tags[self.last_way].1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.tick += 1;
        let set = (lineno as usize) % self.sets;
        let tag = lineno / self.sets as u64;
        let base = set * self.ways;
        let ways = &mut self.tags[base..base + self.ways];
        // `last_way` is a flat index so the fast path skips set
        // arithmetic.
        if let Some((i, (_, used))) = ways
            .iter_mut()
            .enumerate()
            .find(|(_, (t, used))| *used != 0 && *t == tag)
        {
            *used = self.tick;
            self.hits += 1;
            self.last_line = lineno;
            self.last_way = base + i;
            return true;
        }
        self.misses += 1;
        // Fill an empty way first (tick 0), else evict the LRU stamp —
        // identical replacement order to the original grow-then-evict
        // vector: empty ways fill left to right, then min-stamp wins.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(i, _)| i)
            .expect("nonzero ways");
        ways[victim] = (tag, self.tick);
        self.last_line = lineno;
        self.last_way = base + victim;
        false
    }

    /// Read-only residency probe: whether `lineno` is currently cached,
    /// with **no** state change (no tick, no LRU stamp, no counters). The
    /// block-compiled engine ([`crate::block`]) probes a superop's whole
    /// line set first and only touch the lines (via
    /// [`ICache::access_lines`]) once every probe hits — a miss anywhere
    /// sends the block to the interpretive slow path, which replays the
    /// accesses with exact per-fetch accounting.
    #[inline]
    pub fn probe(&self, lineno: u64) -> bool {
        if lineno == self.last_line {
            return true;
        }
        let set = (lineno as usize) % self.sets;
        let tag = lineno / self.sets as u64;
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .any(|&(t, used)| used != 0 && t == tag)
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss penalty in cycles per miss.
    pub fn miss_penalty(&self) -> u32 {
        self.cfg.miss_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u32, line: u32, ways: u32) -> ICacheConfig {
        ICacheConfig {
            size_bytes: size,
            line_bytes: line,
            ways,
            miss_penalty: 10,
        }
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = ICache::new(cfg(1024, 32, 1));
        assert_eq!(c.access(0, 4), 1);
        assert_eq!(c.access(0, 4), 0);
        assert_eq!(c.access(28, 4), 0, "same line");
        assert_eq!(c.access(32, 4), 1, "next line");
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = ICache::new(cfg(1024, 32, 1));
        assert_eq!(c.access(30, 8), 2);
        assert_eq!(c.access(30, 8), 0);
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 1024 B, 32 B lines, direct mapped => 32 sets; lines 0 and 32 clash.
        let mut c = ICache::new(cfg(1024, 32, 1));
        assert_eq!(c.access(0, 4), 1);
        assert_eq!(c.access(1024, 4), 1); // same set, evicts
        assert_eq!(c.access(0, 4), 1, "conflict miss");
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = ICache::new(cfg(1024, 32, 2));
        assert_eq!(c.access(0, 4), 1);
        assert_eq!(c.access(1024, 4), 1);
        assert_eq!(c.access(0, 4), 0, "both fit in a 2-way set");
        assert_eq!(c.access(1024, 4), 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = ICache::new(cfg(1024, 32, 2));
        c.access(0, 4); // A
        c.access(1024, 4); // B
        c.access(0, 4); // A again (B is LRU)
        assert_eq!(c.access(2048, 4), 1); // C evicts B
        assert_eq!(c.access(0, 4), 0, "A kept");
        assert_eq!(c.access(1024, 4), 1, "B was evicted");
    }

    #[test]
    fn access_lines_equals_address_form() {
        // The precomputed-line path must behave exactly like the address
        // path: same misses, same LRU state evolution.
        let mut by_addr = ICache::new(cfg(1024, 32, 2));
        let mut by_line = ICache::new(cfg(1024, 32, 2));
        let accesses = [(0u32, 4u32), (30, 8), (1024, 4), (0, 64), (2048, 4), (0, 4)];
        for (addr, len) in accesses {
            let line = 32u64;
            let first = u64::from(addr) / line;
            let last = (u64::from(addr) + u64::from(len.max(1)) - 1) / line;
            assert_eq!(
                by_addr.access(addr, len),
                by_line.access_lines(first, last),
                "access({addr}, {len})"
            );
        }
        assert_eq!(by_addr.hits(), by_line.hits());
        assert_eq!(by_addr.misses(), by_line.misses());
    }

    #[test]
    fn probe_is_read_only() {
        let mut c = ICache::new(cfg(1024, 32, 2));
        assert!(!c.probe(0), "cold cache");
        c.access(0, 4);
        assert!(c.probe(0));
        assert!(!c.probe(32));
        // A probe must not perturb LRU state: re-probing the LRU way's
        // line does not rescue it from eviction.
        c.access(1024, 4); // same set as line 0 (32 sets, 2 ways)
        assert!(c.probe(0), "still resident in the other way");
        c.access(2048, 4); // evicts line 0 (LRU despite the probes)
        assert!(!c.probe(0));
        assert!(c.probe(1024 / 32));
        let (h, m) = (c.hits(), c.misses());
        assert!(c.probe(2048 / 32));
        assert_eq!((c.hits(), c.misses()), (h, m), "probe counts nothing");
    }

    #[test]
    fn counters_accumulate() {
        let mut c = ICache::new(cfg(512, 16, 1));
        c.access(0, 4);
        c.access(0, 4);
        c.access(16, 4);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 1);
    }
}
