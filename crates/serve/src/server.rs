//! The long-running evaluation server: a TCP listener over one shared
//! [`Session`], one thread per connection, with bounded admission control,
//! in-flight coalescing and per-client attribution.
//!
//! * **Admission control** — the server tracks cells in flight across all
//!   connections; an `Eval` batch that would push the total past the
//!   configured limit is answered with a typed [`Message::Busy`] instead of
//!   queueing unboundedly. The client retries; nothing blocks.
//! * **Coalescing** — cells evaluate through
//!   [`Session::eval_coalesced`], so identical cells requested concurrently
//!   by different clients dedup to one computation (the cache-key seam:
//!   flights are keyed by the codec-rendered request).
//! * **Attribution** — every connection accumulates [`ClientStats`]:
//!   requests, cells, led vs coalesced computations, busy rejections, and
//!   the cache-counter delta around the cells it led. The `Stats` RPC
//!   returns the global [`CacheStats`] plus the per-client table.
//! * **Deadlines** — accepted connections carry the configured
//!   [`Timeouts`]: a client that stops producing bytes mid-frame (or a
//!   stalled injected read) expires instead of pinning its thread forever.
//! * **Graceful drain** — `Shutdown` stops the accept loop, wakes every
//!   idle connection reader (read-half shutdown → clean EOF) and joins all
//!   connection threads, so an `Eval` already in flight completes and its
//!   reply ships before [`EvalServer::serve`] returns.

use crate::client::Timeouts;
use crate::faults;
use crate::wire::{read_frame, write_frame, ClientStats, Message, MetricsReply, StatsReply};
use asip_core::cache::CacheStats;
use asip_core::session::{par_map, EvalOutcome, EvalRequest, Session};
use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Eval RPCs received (admitted or rejected) across all connections.
static OBS_REQUESTS: asip_obs::Counter = asip_obs::Counter::new("serve.requests");
/// Cells admitted for evaluation.
static OBS_CELLS: asip_obs::Counter = asip_obs::Counter::new("serve.cells");
/// Eval RPCs bounced by admission control.
static OBS_BUSY: asip_obs::Counter = asip_obs::Counter::new("serve.busy_rejections");
/// Connections accepted. A pooling coordinator drives many RPCs (all its
/// dispatch rounds plus the metrics scrape) over one connection, so this
/// stays far below `serve.requests`.
static OBS_CONNECTIONS: asip_obs::Counter = asip_obs::Counter::new("serve.connections");
/// Per-cell wall latency through the server's coalescing batch executor.
static OBS_EVAL_CELL_NS: asip_obs::Histogram = asip_obs::Histogram::new("serve.eval_cell_ns");
/// Server-side deadline expiries (name-merged with the client's counter
/// of the same name in metrics snapshots).
static OBS_TIMEOUTS: asip_obs::Counter = asip_obs::Counter::new("serve.timeouts");

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum cells in flight across all connections; an `Eval` batch
    /// that would exceed it is rejected with [`Message::Busy`].
    pub max_in_flight_cells: u64,
    /// Read/write deadlines armed on every accepted connection
    /// (environment-tunable via [`crate::client::TIMEOUT_ENV`]).
    pub timeouts: Timeouts,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight_cells: 1024,
            timeouts: Timeouts::default(),
        }
    }
}

/// Fieldwise counter difference `after - before` (saturating), used for
/// per-client attribution snapshots.
fn stats_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    use asip_core::cache::{StageStats, TierStats};
    let stage = |a: &StageStats, b: &StageStats| StageStats {
        hits: a.hits.saturating_sub(b.hits),
        misses: a.misses.saturating_sub(b.misses),
    };
    let tier = |a: &TierStats, b: &TierStats| TierStats {
        hits: a.hits.saturating_sub(b.hits),
        loads: a.loads.saturating_sub(b.loads),
        stores: a.stores.saturating_sub(b.stores),
        stale_drops: a.stale_drops.saturating_sub(b.stale_drops),
        evictions: a.evictions.saturating_sub(b.evictions),
        tmp_reclaimed: a.tmp_reclaimed.saturating_sub(b.tmp_reclaimed),
        resident_bytes: a.resident_bytes, // a level, not a counter
        entries: a.entries,
    };
    CacheStats {
        parse: stage(&after.parse, &before.parse),
        optimize: stage(&after.optimize, &before.optimize),
        profile: stage(&after.profile, &before.profile),
        compile: stage(&after.compile, &before.compile),
        simulate: stage(&after.simulate, &before.simulate),
        evictions: after.evictions.saturating_sub(before.evictions),
        resident_bytes: after.resident_bytes,
        mem: tier(&after.mem, &before.mem),
        disk: tier(&after.disk, &before.disk),
        has_disk: after.has_disk,
    }
}

/// Fieldwise counter sum `into += add` for accumulating attribution deltas.
fn stats_accumulate(into: &mut CacheStats, add: &CacheStats) {
    use asip_core::cache::{StageStats, TierStats};
    let stage = |i: &mut StageStats, a: &StageStats| {
        i.hits += a.hits;
        i.misses += a.misses;
    };
    let tier = |i: &mut TierStats, a: &TierStats| {
        i.hits += a.hits;
        i.loads += a.loads;
        i.stores += a.stores;
        i.stale_drops += a.stale_drops;
        i.evictions += a.evictions;
        i.tmp_reclaimed += a.tmp_reclaimed;
        i.resident_bytes = a.resident_bytes;
        i.entries = a.entries;
    };
    stage(&mut into.parse, &add.parse);
    stage(&mut into.optimize, &add.optimize);
    stage(&mut into.profile, &add.profile);
    stage(&mut into.compile, &add.compile);
    stage(&mut into.simulate, &add.simulate);
    into.evictions += add.evictions;
    into.resident_bytes = add.resident_bytes;
    tier(&mut into.mem, &add.mem);
    tier(&mut into.disk, &add.disk);
    into.has_disk = add.has_disk;
}

struct ServerShared {
    session: Session,
    limit: u64,
    in_flight: AtomicU64,
    stopping: AtomicBool,
    clients: Mutex<BTreeMap<String, ClientStats>>,
    /// Live connection read-halves, keyed by connection id. The drain
    /// path shuts each read half down so idle readers wake with EOF;
    /// each connection thread removes its own entry on exit.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl ServerShared {
    fn register_conn(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().unwrap().insert(id, clone);
        Some(id)
    }

    fn deregister_conn(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.conns.lock().unwrap().remove(&id);
        }
    }

    /// Wake every blocked connection reader: an idle thread parked in
    /// `read_frame` sees clean EOF and exits; a thread mid-`Eval` is
    /// untouched (its write half stays open) and finishes its reply.
    fn nudge_all_conns(&self) {
        for stream in self.conns.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// RAII admission reservation: returns the cells to the pool on drop, so
/// a panicking connection can never leak capacity.
struct Admission<'a> {
    shared: &'a ServerShared,
    cells: u64,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.shared
            .in_flight
            .fetch_sub(self.cells, Ordering::AcqRel);
    }
}

impl ServerShared {
    /// Try to reserve `cells` units of admission capacity.
    fn admit(&self, cells: u64) -> Result<Admission<'_>, u64> {
        let mut cur = self.in_flight.load(Ordering::Acquire);
        loop {
            if cur + cells > self.limit {
                return Err(cur);
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + cells,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(Admission {
                        shared: self,
                        cells,
                    })
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn with_client<R>(&self, id: &str, f: impl FnOnce(&mut ClientStats) -> R) -> R {
        let mut clients = self.clients.lock().unwrap();
        let entry = clients
            .entry(id.to_string())
            .or_insert_with(|| ClientStats {
                client: id.to_string(),
                ..ClientStats::default()
            });
        f(entry)
    }
}

/// A bound evaluation server. Create with [`EvalServer::bind`], then either
/// block in [`EvalServer::serve`] or detach it with [`EvalServer::spawn`].
pub struct EvalServer {
    listener: TcpListener,
    timeouts: Timeouts,
    shared: Arc<ServerShared>,
}

impl EvalServer {
    /// Bind a listener at `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) serving `session`.
    ///
    /// # Errors
    ///
    /// Any socket-level [`io::Error`].
    pub fn bind(session: Session, addr: &str, config: ServerConfig) -> io::Result<EvalServer> {
        faults::init_from_env();
        let listener = TcpListener::bind(addr)?;
        Ok(EvalServer {
            listener,
            timeouts: config.timeouts,
            shared: Arc::new(ServerShared {
                session,
                limit: config.max_in_flight_cells,
                in_flight: AtomicU64::new(0),
                stopping: AtomicBool::new(false),
                clients: Mutex::new(BTreeMap::new()),
                conns: Mutex::new(BTreeMap::new()),
                next_conn_id: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Any socket-level [`io::Error`].
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections until a client sends [`Message::Shutdown`].
    /// Each connection gets its own thread; evaluation runs on the shared
    /// session (whose own worker pool parallelizes within a batch).
    ///
    /// Shutdown drains gracefully: idle connection readers are woken with
    /// a read-half shutdown (clean EOF), threads mid-`Eval` finish and
    /// write their replies, and every connection thread is joined before
    /// this returns.
    pub fn serve(self) {
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.shared.stopping.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            OBS_CONNECTIONS.add(1);
            let _ = self.timeouts.apply(&stream);
            let shared = Arc::clone(&self.shared);
            handles.retain(|h| !h.is_finished());
            handles.push(std::thread::spawn(move || {
                handle_connection(stream, &shared);
            }));
        }
        self.shared.nudge_all_conns();
        for h in handles {
            let _ = h.join();
        }
    }

    /// [`EvalServer::serve`] on a background thread; returns the bound
    /// address and the join handle.
    ///
    /// # Errors
    ///
    /// Any socket-level [`io::Error`].
    pub fn spawn(self) -> io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
        let addr = self.local_addr()?;
        let handle = std::thread::spawn(move || self.serve());
        Ok((addr, handle))
    }
}

/// Evaluate a batch through [`Session::eval_coalesced`] on the pool
/// [`Session::eval_batch`] uses ([`par_map`], which joins its workers), so
/// results are request-ordered and thread-count-invariant, but concurrent
/// identical cells (across *all* server connections) dedup to one
/// computation. Returns the outcomes plus how many cells this caller led.
fn eval_batch_coalesced(session: &Session, reqs: &[EvalRequest]) -> (Vec<EvalOutcome>, u64) {
    let runs = par_map(session.threads(), reqs, |r| {
        let t0 = std::time::Instant::now();
        let out = session.eval_coalesced(r);
        OBS_EVAL_CELL_NS.record(t0.elapsed().as_nanos() as u64);
        out
    });
    let led = runs.iter().map(|&(_, led)| u64::from(led)).sum();
    (runs.into_iter().map(|(o, _)| o).collect(), led)
}

fn handle_connection(stream: TcpStream, shared: &ServerShared) {
    let conn_id = shared.register_conn(&stream);
    handle_connection_inner(stream, shared);
    shared.deregister_conn(conn_id);
}

fn handle_connection_inner(stream: TcpStream, shared: &ServerShared) {
    let client_id = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut reader = io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = io::BufWriter::new(stream);
    loop {
        // A typed protocol failure or transport error ends the connection;
        // the process never panics on a malformed frame.
        let msg = match read_frame(&mut reader) {
            Ok(msg) => msg,
            Err(crate::wire::ProtocolError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                OBS_TIMEOUTS.add(1);
                return;
            }
            Err(_) => return,
        };
        let reply = match msg {
            Message::Eval(reqs) => {
                if faults::active() {
                    match faults::on_eval() {
                        faults::EvalFault::Pass => {}
                        faults::EvalFault::Busy => {
                            OBS_REQUESTS.add(1);
                            OBS_BUSY.add(1);
                            let reply = Message::Busy {
                                in_flight: shared.in_flight.load(Ordering::Acquire),
                                limit: shared.limit,
                            };
                            if write_frame(&mut writer, &reply).is_err() {
                                return;
                            }
                            continue;
                        }
                        faults::EvalFault::Crash => {
                            // An injected hard crash: no reply, no cleanup,
                            // exactly what a SIGKILLed worker looks like.
                            std::process::exit(86);
                        }
                    }
                }
                let cells = reqs.len() as u64;
                OBS_REQUESTS.add(1);
                let mut admit_span = asip_obs::span("serve", "admit");
                match shared.admit(cells) {
                    Err(in_flight) => {
                        admit_span.note("busy");
                        drop(admit_span);
                        OBS_BUSY.add(1);
                        shared.with_client(&client_id, |c| {
                            c.requests += 1;
                            c.busy_rejections += 1;
                        });
                        Message::Busy {
                            in_flight,
                            limit: shared.limit,
                        }
                    }
                    Ok(admission) => {
                        admit_span.note("admitted");
                        drop(admit_span);
                        OBS_CELLS.add(cells);
                        let mut eval_span = asip_obs::span("serve", "eval");
                        if eval_span.is_recording() {
                            eval_span.detail(format!("{cells} cells from {client_id}"));
                        }
                        let before = shared.session.cache_stats();
                        let (outcomes, led) = eval_batch_coalesced(&shared.session, &reqs);
                        let after = shared.session.cache_stats();
                        drop(eval_span);
                        drop(admission);
                        shared.with_client(&client_id, |c| {
                            c.requests += 1;
                            c.cells += cells;
                            c.led += led;
                            c.coalesced += cells - led;
                            if led > 0 {
                                stats_accumulate(&mut c.attributed, &stats_delta(&after, &before));
                            }
                        });
                        Message::Outcomes(outcomes)
                    }
                }
            }
            Message::Stats => {
                let clients = shared.clients.lock().unwrap().values().cloned().collect();
                Message::StatsReply(Box::new(StatsReply {
                    cache: shared.session.cache_stats(),
                    clients,
                }))
            }
            Message::Metrics => Message::MetricsReply(Box::new(MetricsReply::from_process(
                shared.session.cache_stats(),
            ))),
            Message::Ping => Message::Pong,
            Message::Shutdown => {
                shared.stopping.store(true, Ordering::Release);
                let _ = write_frame(&mut writer, &Message::Pong);
                // Unblock the accept loop so `serve` observes the flag.
                if let Ok(addr) = reader.get_ref().local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
            // A response kind arriving as a request: answer Pong and keep
            // the connection usable rather than killing it.
            _ => Message::Pong,
        };
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_core::cache::StageStats;

    #[test]
    fn admission_is_a_bounded_counter() {
        let shared = ServerShared {
            session: Session::builder().threads(1).cache_bytes(0).build(),
            limit: 10,
            in_flight: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            clients: Mutex::new(BTreeMap::new()),
            conns: Mutex::new(BTreeMap::new()),
            next_conn_id: AtomicU64::new(0),
        };
        let a = shared.admit(6).expect("6 fits");
        let err = shared.admit(5).err().expect("6+5 over limit");
        assert_eq!(err, 6);
        let b = shared.admit(4).expect("6+4 fits exactly");
        drop(a);
        drop(b);
        assert_eq!(shared.in_flight.load(Ordering::Acquire), 0, "RAII release");
    }

    #[test]
    fn stats_delta_and_accumulate_are_fieldwise() {
        let before = CacheStats {
            parse: StageStats { hits: 1, misses: 2 },
            ..CacheStats::default()
        };
        let mut after = before;
        after.parse.hits = 5;
        after.simulate.misses = 3;
        let d = stats_delta(&after, &before);
        assert_eq!(d.parse, StageStats { hits: 4, misses: 0 });
        assert_eq!(d.simulate, StageStats { hits: 0, misses: 3 });
        let mut acc = CacheStats::default();
        stats_accumulate(&mut acc, &d);
        stats_accumulate(&mut acc, &d);
        assert_eq!(acc.parse.hits, 8);
        assert_eq!(acc.simulate.misses, 6);
    }
}
