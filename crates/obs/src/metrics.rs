//! Always-on counters and log2-bucketed histograms with a process-global
//! registry and a deterministic text exposition.
//!
//! Declare metrics as `static`s next to the code they measure:
//!
//! ```
//! static LOOKUPS: asip_obs::Counter = asip_obs::Counter::new("demo.lookups");
//! static LATENCY: asip_obs::Histogram = asip_obs::Histogram::new("demo.latency_ns");
//!
//! LOOKUPS.add(1);
//! LATENCY.record(1_500);
//! let snap = asip_obs::snapshot();
//! assert!(snap.counter("demo.lookups") >= 1);
//! ```
//!
//! Recording is allocation-free: a counter add is one relaxed atomic add;
//! a histogram record is three (count, sum, one bucket). Statics register
//! themselves in the global registry on first use via a [`Once`] whose
//! steady-state cost is a single atomic load. Every metric is such a
//! static, so every name is known at compile time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Histogram bucket count. Bucket `i` holds values whose bit length is
/// `i` (i.e. `2^(i-1) <= v < 2^i`, with bucket 0 holding exactly zero);
/// the last bucket absorbs everything wider.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: its bit length, clamped to the last bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (used as the quantile estimate).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing process-global counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: Once,
}

impl Counter {
    /// A counter named `name` (const: usable in `static` initializers).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Add `n`. Registers the counter on first use.
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.registered
            .call_once(|| registry().counters.lock().unwrap().push(self));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A log2-bucketed latency/value histogram (count, sum, [`BUCKETS`]
/// power-of-two buckets). Recording touches three atomics and never
/// allocates.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: Once,
}

impl Histogram {
    /// A histogram named `name` (const: usable in `static` initializers).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            registered: Once::new(),
        }
    }

    /// Record one observation. Registers the histogram on first use.
    #[inline]
    pub fn record(&'static self, value: u64) {
        self.registered
            .call_once(|| registry().histograms.lock().unwrap().push(self));
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
    })
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time contents of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (nanoseconds for latency histograms).
    pub sum_ns: u64,
    /// Sparse nonzero buckets as `(bucket index, count)`, index-ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Quantile estimate: the upper bound of the bucket holding the
    /// rank-`ceil(q * n)` observation, where `n` is the sum of the bucket
    /// counts. `0` when empty.
    ///
    /// The rank is not taken over `count`: a snapshot taken while a
    /// [`Histogram::record`] is in flight can read the count ahead of the
    /// buckets, and a rank past the last bucket has no bound to report.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.buckets.iter().fold(0u64, |n, b| n.saturating_add(b.1));
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper_bound(i as usize);
            }
        }
        0
    }

    /// Mean observation (integer division; `0` when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time snapshot of every registered metric, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters, sorted by name (same-name statics merged).
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name (same-name statics merged).
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the counter named `name` (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The histogram named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Deterministic text exposition: one name-sorted line per metric.
    ///
    /// ```text
    /// counter cache.mem.loads 42
    /// hist stage.parse.self_ns count=3 sum_ns=1201 p50_ns=511 p99_ns=1023 buckets=9:2,10:1
    /// ```
    ///
    /// Counter lines and every `count=` field are deterministic functions
    /// of the work performed; everything after `count=` on a `hist` line is
    /// timing (tests comparing runs mask it).
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!("counter {} {}\n", c.name, c.value));
        }
        for h in &self.histograms {
            let buckets = h
                .buckets
                .iter()
                .map(|(i, n)| format!("{i}:{n}"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "hist {} count={} sum_ns={} p50_ns={} p99_ns={} buckets={}\n",
                h.name,
                h.count,
                h.sum_ns,
                h.quantile_ns(0.50),
                h.quantile_ns(0.99),
                buckets
            ));
        }
        out
    }
}

/// Snapshot every registered metric (see [`Snapshot`]).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut counters: HashMap<String, u64> = HashMap::new();
    for c in reg.counters.lock().unwrap().iter() {
        *counters.entry(String::from(c.name)).or_default() += c.get();
    }
    let mut counters: Vec<CounterSnapshot> = counters
        .into_iter()
        .map(|(name, value)| CounterSnapshot { name, value })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));

    let mut hists: HashMap<String, (u64, u64, [u64; BUCKETS])> = HashMap::new();
    for h in reg.histograms.lock().unwrap().iter() {
        let slot = hists
            .entry(String::from(h.name))
            .or_insert((0, 0, [0; BUCKETS]));
        slot.0 += h.count.load(Ordering::Relaxed);
        slot.1 += h.sum.load(Ordering::Relaxed);
        for (i, b) in h.buckets.iter().enumerate() {
            slot.2[i] += b.load(Ordering::Relaxed);
        }
    }
    let mut histograms: Vec<HistogramSnapshot> = hists
        .into_iter()
        .map(|(name, (count, sum_ns, buckets))| HistogramSnapshot {
            name,
            count,
            sum_ns,
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u8, n))
                .collect(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot {
        counters,
        histograms,
    }
}

/// Zero every registered counter and histogram (registration survives).
pub fn reset_metrics() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.lock().unwrap().iter() {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn static_counter_and_histogram_register_and_snapshot() {
        static HITS: Counter = Counter::new("test.metrics.hits");
        static LAT: Histogram = Histogram::new("test.metrics.lat_ns");
        HITS.add(2);
        HITS.add(3);
        LAT.record(100);
        LAT.record(900);
        LAT.record(1_000_000);
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.hits"), 5);
        let h = snap.histogram("test.metrics.lat_ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 1_001_000);
        assert_eq!(
            h.quantile_ns(0.5),
            1023,
            "median lands in the 512..1023 bucket"
        );
        assert!(h.quantile_ns(0.99) >= 1_000_000);
        assert!(h.quantile_ns(0.99) < 2_097_152);
    }

    #[test]
    fn exposition_is_sorted_and_parseable() {
        static B: Counter = Counter::new("test.expo.b");
        static A: Counter = Counter::new("test.expo.a");
        static H: Histogram = Histogram::new("test.expo.h");
        B.add(1);
        A.add(2);
        H.record(3);
        let text = snapshot().exposition();
        let a = text.find("counter test.expo.a 2").expect("a line");
        let b = text.find("counter test.expo.b 1").expect("b line");
        assert!(a < b, "sorted by name");
        let h = text
            .lines()
            .find(|l| l.starts_with("hist test.expo.h "))
            .expect("hist line");
        assert!(h.contains("count=1"));
        assert!(h.contains("buckets=2:1"));
    }

    #[test]
    fn quantiles_read_the_bucket_holding_the_rank() {
        let h = HistogramSnapshot {
            name: "h".into(),
            count: 100,
            sum_ns: 0,
            buckets: vec![(4, 50), (8, 49), (20, 1)],
        };
        assert_eq!(h.quantile_ns(0.5), (1 << 4) - 1);
        assert_eq!(h.quantile_ns(0.99), (1 << 8) - 1);
        assert_eq!(h.quantile_ns(1.0), (1 << 20) - 1);
    }

    #[test]
    fn quantiles_of_a_torn_snapshot_stay_in_its_buckets() {
        // Taken between a record's count and bucket adds: the count reads
        // one ahead of the bucket sums.
        let h = HistogramSnapshot {
            name: "torn".into(),
            count: 3,
            sum_ns: 30,
            buckets: vec![(4, 2)],
        };
        assert_eq!(h.quantile_ns(0.5), 15);
        assert_eq!(h.quantile_ns(0.99), 15);
        assert_eq!(h.quantile_ns(1.0), 15);
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        let h = HistogramSnapshot {
            name: "empty".into(),
            count: 0,
            sum_ns: 0,
            buckets: vec![],
        };
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0);
    }
}
