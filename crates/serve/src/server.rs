//! The long-running evaluation server: a TCP listener over one shared
//! [`Session`], one thread per connection, with bounded admission control.
//!
//! * **Admission control** — the server tracks cells in flight across all
//!   connections; an `Eval` batch that would push the total past the
//!   configured limit is answered with a typed [`Message::Busy`] instead of
//!   queueing unboundedly. The client retries; nothing blocks.
//! * **Evaluation** — an admitted batch runs through
//!   [`Session::eval_batch`] on the shared session, whose artifact cache
//!   serves any cell another connection already computed.
//! * **Metrics** — the `Metrics` RPC returns the process's counters and
//!   histograms plus the session's cache counters ([`MetricsReply`]).
//! * **Deadlines** — accepted connections carry the configured
//!   [`Timeouts`]: a client that stops producing bytes mid-frame (or a
//!   stalled injected read) expires instead of pinning its thread forever.
//! * **Graceful drain** — `Shutdown` stops the accept loop, wakes every
//!   idle connection reader (read-half shutdown → clean EOF) and joins all
//!   connection threads, so an `Eval` already in flight completes and its
//!   reply ships before [`EvalServer::serve`] returns.

use crate::client::Timeouts;
use crate::faults;
use crate::wire::{read_frame, write_frame, Message, MetricsReply};
use asip_core::session::Session;
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

struct ServerShared {
    session: Session,
    limit: u64,
    in_flight: AtomicU64,
    stopping: AtomicBool,
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

fn handle_connection(stream: TcpStream, shared: &ServerShared) {
    let conn_id = shared.register_conn(&stream);
    handle_connection_inner(stream, shared);
    shared.deregister_conn(conn_id);
}

fn handle_connection_inner(stream: TcpStream, shared: &ServerShared) {
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
                            eval_span.detail(format!("{cells} cells"));
                        }
                        let outcomes = shared.session.eval_batch(&reqs);
                        drop(eval_span);
                        drop(admission);
                        Message::Outcomes(outcomes)
                    }
                }
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

    #[test]
    fn admission_is_a_bounded_counter() {
        let shared = ServerShared {
            session: Session::builder().threads(1).cache_bytes(0).build(),
            limit: 10,
            in_flight: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
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
}
