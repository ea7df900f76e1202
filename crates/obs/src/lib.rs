//! # asip_obs — the observability spine
//!
//! A zero-dependency, lock-cheap tracing + metrics subsystem shared by
//! every layer of the toolchain (pipeline stages, cache tiers, simulation
//! engines, the evaluation service). Two planes, deliberately separate:
//!
//! * **Metrics** (always on): process-global [`Counter`]s and log2-bucketed
//!   [`Histogram`]s declared as `static`s at their call sites. Recording is
//!   a handful of relaxed atomic adds — no locks, no allocation on the hot
//!   path — and a [`snapshot`] renders a deterministic, sorted text
//!   exposition (see [`Snapshot::exposition`]) that feeds
//!   `asip_bench::session_summary()` and the `Metrics` RPC.
//! * **Spans** (off by default): RAII [`Span`] guards record structured
//!   events (category, name, hit/miss-style note, free-form detail,
//!   nanosecond start + duration) into bounded per-thread ring buffers.
//!   When recording is disabled — the default — starting a span is one
//!   relaxed atomic load and drop is a no-op, so instrumented hot paths
//!   stay hot (proven by the `obs_overhead` bench). Enable recording with
//!   [`set_enabled`] or by configuring a trace file
//!   ([`set_trace_path`] / the `ASIP_TRACE` environment variable), then
//!   export everything as Chrome trace-event JSON ([`flush_trace`]) and
//!   open it in `chrome://tracing`.
//!
//! Span guards are `!Send`: a span begins and ends on one thread, so the
//! per-thread event streams are well-nested by construction (pinned by the
//! `obs_trace` integration test).
//!
//! ```
//! static FRAMES: asip_obs::Counter = asip_obs::Counter::new("demo.frames");
//!
//! asip_obs::set_enabled(true);
//! {
//!     let mut span = asip_obs::span("demo", "frame");
//!     span.note("hit");
//!     FRAMES.add(1);
//! } // span records on drop
//! assert!(asip_obs::events().iter().any(|e| e.name == "frame"));
//! asip_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    snapshot, Counter, CounterSnapshot, Histogram, HistogramSnapshot, Snapshot, BUCKETS,
};
pub use trace::{
    chrome_trace_json, flush_trace, init_from_env, set_trace_path, trace_path, TRACE_ENV,
};

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread before the ring overwrites its oldest entry
/// (overwrites are counted, never silent — see [`span_totals`]).
pub const RING_CAP: usize = 32_768;

/// One recorded span: a closed interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Coarse grouping (`"stage"`, `"cache"`, `"engine"`, `"serve"`, …);
    /// the Chrome exporter maps it to the event category.
    pub cat: &'static str,
    /// What ran (`"parse"`, `"mem"`, `"run"`, …).
    pub name: &'static str,
    /// Short disposition tag (`"hit"`, `"miss"`, `"leader"`, …); empty
    /// when unset.
    pub note: &'static str,
    /// Free-form context (`"fir@ember4"`, a peer address, …); empty when
    /// unset. Only allocated while recording is enabled.
    pub detail: String,
    /// Recording thread (small dense ids assigned per thread, not OS tids).
    pub tid: u32,
    /// Start, in nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Ring {
    events: std::collections::VecDeque<SpanEvent>,
    /// Total events ever pushed (survivors + overwritten).
    pushed: u64,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

struct ThreadBuf {
    tid: u32,
    ring: Mutex<Ring>,
}

static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static THREADS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic epoch (established on
/// first use, so all threads share one timeline).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether span recording is on. One relaxed load: this is the only cost
/// an instrumented call site pays while recording is disabled.
#[inline]
pub fn enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off. Metrics are unaffected (always on).
pub fn set_enabled(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

thread_local! {
    static TLS_BUF: std::cell::OnceCell<Arc<ThreadBuf>> = const { std::cell::OnceCell::new() };
}

fn with_thread_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    TLS_BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring {
                    events: std::collections::VecDeque::new(),
                    pushed: 0,
                    dropped: 0,
                }),
            });
            THREADS.lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

/// An in-progress span; records one [`SpanEvent`] when dropped. Obtained
/// from [`span`]; inert (and nearly free) while recording is disabled.
///
/// `!Send` by construction: a span lives and dies on one thread, which is
/// what makes per-thread event streams well-nested.
#[derive(Debug)]
pub struct Span {
    data: Option<SpanData>,
    _not_send: PhantomData<*const ()>,
}

#[derive(Debug)]
struct SpanData {
    cat: &'static str,
    name: &'static str,
    note: &'static str,
    detail: String,
    start_ns: u64,
}

/// Start a span under `cat`/`name`. While recording is disabled this is
/// one atomic load and the returned guard does nothing on drop.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    let data = enabled().then(|| SpanData {
        cat,
        name,
        note: "",
        detail: String::new(),
        start_ns: now_ns(),
    });
    Span {
        data,
        _not_send: PhantomData,
    }
}

impl Span {
    /// Whether this span is actually recording (recording was enabled when
    /// it started). Use to skip building expensive [`Span::detail`] text.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.data.is_some()
    }

    /// Tag the span with a short disposition (`"hit"`, `"miss"`,
    /// `"leader"`, …). Last call wins.
    #[inline]
    pub fn note(&mut self, note: &'static str) {
        if let Some(d) = &mut self.data {
            d.note = note;
        }
    }

    /// Attach free-form context (workload/machine names, a peer address).
    /// The string is only built when [`Span::is_recording`]; guard
    /// expensive formatting with that check.
    #[inline]
    pub fn detail(&mut self, detail: impl Into<String>) {
        if let Some(d) = &mut self.data {
            d.detail = detail.into();
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(d) = self.data.take() else { return };
        let end = now_ns();
        with_thread_buf(|buf| {
            let mut ring = buf.ring.lock().unwrap();
            if ring.events.len() >= RING_CAP {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.pushed += 1;
            let tid = buf.tid;
            ring.events.push_back(SpanEvent {
                cat: d.cat,
                name: d.name,
                note: d.note,
                detail: d.detail,
                tid,
                start_ns: d.start_ns,
                dur_ns: end.saturating_sub(d.start_ns),
            });
        });
    }
}

/// Snapshot every thread's retained span events, ordered by
/// (thread, start time).
pub fn events() -> Vec<SpanEvent> {
    let threads = THREADS.lock().unwrap();
    let mut out = Vec::new();
    for buf in threads.iter() {
        out.extend(buf.ring.lock().unwrap().events.iter().cloned());
    }
    drop(threads);
    out.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
        ))
    });
    out
}

/// Total span events ever recorded and how many the rings overwrote,
/// as `(recorded, dropped)`.
pub fn span_totals() -> (u64, u64) {
    let threads = THREADS.lock().unwrap();
    let mut recorded = 0;
    let mut dropped = 0;
    for buf in threads.iter() {
        let ring = buf.ring.lock().unwrap();
        recorded += ring.pushed;
        dropped += ring.dropped;
    }
    (recorded, dropped)
}

/// Drop every retained span event and zero the recorded/dropped totals.
pub fn clear_events() {
    let threads = THREADS.lock().unwrap();
    for buf in threads.iter() {
        let mut ring = buf.ring.lock().unwrap();
        ring.events.clear();
        ring.pushed = 0;
        ring.dropped = 0;
    }
}

/// Reset all observability state: every registered counter and histogram
/// back to zero, every span ring emptied. Recording enablement and the
/// trace path are left alone. Meant for tests and benches that compare
/// runs within one process.
pub fn reset() {
    metrics::reset_metrics();
    clear_events();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span state is process-global; tests in this file serialize on one
    // lock so parallel test threads cannot see each other's events.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        clear_events();
        set_enabled(false);
        for _ in 0..10 {
            let mut s = span("t", "noop");
            s.note("hit");
            s.detail("ignored");
        }
        assert!(events().is_empty());
        assert_eq!(span_totals(), (0, 0));
    }

    #[test]
    fn enabled_spans_record_with_notes() {
        let _g = locked();
        clear_events();
        set_enabled(true);
        {
            let mut outer = span("t", "outer");
            outer.detail("ctx");
            let mut inner = span("t", "inner");
            inner.note("miss");
        }
        set_enabled(false);
        let evs: Vec<_> = events().into_iter().filter(|e| e.cat == "t").collect();
        assert_eq!(evs.len(), 2);
        let outer = evs.iter().find(|e| e.name == "outer").unwrap();
        let inner = evs.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.detail, "ctx");
        assert_eq!(inner.note, "miss");
        // Well-nested on one thread: inner starts after and ends before.
        assert_eq!(outer.tid, inner.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        clear_events();
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let _g = locked();
        clear_events();
        set_enabled(true);
        for _ in 0..(RING_CAP + 5) {
            let _s = span("t", "flood");
        }
        set_enabled(false);
        let (recorded, dropped) = span_totals();
        assert_eq!(recorded, (RING_CAP + 5) as u64);
        assert_eq!(dropped, 5);
        clear_events();
        assert_eq!(span_totals(), (0, 0));
    }
}
