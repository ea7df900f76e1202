//! The client side of the evaluation service: a blocking request/response
//! connection speaking the [`wire`](crate::wire) protocol, with deadlines
//! on every operation — connect, read and write all carry timeouts, so no
//! client call can block indefinitely on a hung or black-holed peer.

use crate::wire::{read_frame, write_frame, Message, MetricsReply, ProtocolError};
use asip_core::session::{EvalOutcome, EvalRequest};
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Environment variable overriding every serve deadline at once, in
/// milliseconds (`ASIP_SERVE_TIMEOUT_MS=500` → 500 ms connect, read and
/// write). Explicit [`Timeouts`] values win over it; non-positive or
/// malformed values fall back to the compiled defaults.
pub const TIMEOUT_ENV: &str = "ASIP_SERVE_TIMEOUT_MS";

static OBS_TIMEOUTS: asip_obs::Counter = asip_obs::Counter::new("serve.timeouts");

/// Deadlines for one connection: connect, per-read and per-write. The
/// compiled defaults (5 s connect, 30 s read/write) are generous enough
/// for a cold-cache eval batch; [`TIMEOUT_ENV`] tightens all three at
/// once for chaos runs and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// Deadline for establishing the TCP connection.
    pub connect: Duration,
    /// Deadline for each blocking read (a full frame may span several).
    pub read: Duration,
    /// Deadline for each blocking write.
    pub write: Duration,
}

impl Timeouts {
    /// Compiled defaults, ignoring the environment.
    pub const fn compiled() -> Timeouts {
        Timeouts {
            connect: Duration::from_secs(5),
            read: Duration::from_secs(30),
            write: Duration::from_secs(30),
        }
    }

    /// The effective defaults: [`TIMEOUT_ENV`] when set to a positive
    /// millisecond count (applied to all three deadlines), else the
    /// compiled defaults.
    pub fn from_env() -> Timeouts {
        match std::env::var(TIMEOUT_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(ms) if ms > 0 => {
                let d = Duration::from_millis(ms);
                Timeouts {
                    connect: d,
                    read: d,
                    write: d,
                }
            }
            _ => Timeouts::compiled(),
        }
    }

    /// Builder-style connect deadline.
    #[must_use]
    pub fn connect(mut self, d: Duration) -> Timeouts {
        self.connect = d;
        self
    }

    /// Builder-style read deadline.
    #[must_use]
    pub fn read(mut self, d: Duration) -> Timeouts {
        self.read = d;
        self
    }

    /// Builder-style write deadline.
    #[must_use]
    pub fn write(mut self, d: Duration) -> Timeouts {
        self.write = d;
        self
    }

    /// Apply the read/write deadlines to an accepted or connected stream.
    pub(crate) fn apply(&self, stream: &TcpStream) -> io::Result<()> {
        // `set_*_timeout(Some(ZERO))` is an error by contract; treat a
        // zero deadline as "no deadline" rather than failing the connect.
        stream.set_read_timeout((!self.read.is_zero()).then_some(self.read))?;
        stream.set_write_timeout((!self.write.is_zero()).then_some(self.write))
    }
}

impl Default for Timeouts {
    fn default() -> Timeouts {
        Timeouts::from_env()
    }
}

/// Everything a service interaction can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// The wire protocol failed (transport included).
    Protocol(ProtocolError),
    /// A deadline expired: the peer did not connect, produce or accept
    /// bytes in time. Retryable — the shard coordinator treats it like a
    /// dropped connection.
    Timeout {
        /// Which operation timed out: `"connect"`, `"read"` or `"write"`.
        op: &'static str,
    },
    /// The server rejected the batch under admission control; retry later.
    Busy {
        /// Cells in flight when the server rejected the batch.
        in_flight: u64,
        /// The server's admission limit.
        limit: u64,
    },
    /// The server answered with a message the request never elicits.
    Unexpected {
        /// The reply's name.
        got: &'static str,
    },
    /// A worker process could not be spawned or never reported an address.
    Spawn(String),
    /// A shard's cells could not be completed within the retry budget
    /// (its worker died or stayed busy, and every re-dispatch failed too).
    ShardFailed {
        /// Original shard index.
        shard: usize,
        /// Cells left incomplete.
        cells: usize,
        /// Dispatch attempts consumed.
        attempts: u32,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(e) => write!(f, "protocol: {e}"),
            ServeError::Timeout { op } => write!(f, "{op} deadline expired"),
            ServeError::Busy { in_flight, limit } => {
                write!(f, "server busy ({in_flight}/{limit} cells in flight)")
            }
            ServeError::Unexpected { got } => write!(f, "unexpected reply {got}"),
            ServeError::Spawn(msg) => write!(f, "worker spawn: {msg}"),
            ServeError::ShardFailed {
                shard,
                cells,
                attempts,
            } => write!(
                f,
                "shard {shard} failed: {cells} cells incomplete after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Whether an I/O error is a socket deadline expiry. Unix surfaces read
/// timeouts as `WouldBlock`, Windows as `TimedOut`; both mean the same
/// thing here.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Map transport deadline expiries to the typed [`ServeError::Timeout`],
/// counting them, and everything else to [`ServeError::Protocol`].
fn classify(e: ProtocolError, op: &'static str) -> ServeError {
    match e {
        ProtocolError::Io(ref io_err) if is_timeout(io_err) => {
            OBS_TIMEOUTS.add(1);
            ServeError::Timeout { op }
        }
        other => ServeError::Protocol(other),
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        classify(e, "read")
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        classify(ProtocolError::Io(e), "read")
    }
}

/// A connection to an evaluation server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Client({:?})", self.reader.get_ref().peer_addr())
    }
}

impl Client {
    /// Connect to a server at `addr` under the default [`Timeouts`]
    /// (environment-tunable via [`TIMEOUT_ENV`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the connect deadline expires,
    /// [`ServeError::Protocol`] on any other connection failure.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        Client::connect_with(addr, &Timeouts::default())
    }

    /// Connect under explicit deadlines: the TCP connect is bounded by
    /// `timeouts.connect`, and read/write deadlines are armed on the
    /// stream before the first byte moves.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the connect deadline expires,
    /// [`ServeError::Protocol`] on any other connection failure.
    pub fn connect_with(addr: &str, timeouts: &Timeouts) -> Result<Client, ServeError> {
        crate::faults::init_from_env();
        let stream = if timeouts.connect.is_zero() {
            TcpStream::connect(addr).map_err(|e| classify(ProtocolError::Io(e), "connect"))?
        } else {
            let sock = addr
                .to_socket_addrs()
                .map_err(|e| classify(ProtocolError::Io(e), "connect"))?
                .next()
                .ok_or_else(|| {
                    ServeError::Protocol(ProtocolError::Io(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("address {addr:?} resolved to nothing"),
                    )))
                })?;
            TcpStream::connect_timeout(&sock, timeouts.connect)
                .map_err(|e| classify(ProtocolError::Io(e), "connect"))?
        };
        timeouts.apply(&stream)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, msg: &Message) -> Result<Message, ServeError> {
        write_frame(&mut self.writer, msg).map_err(|e| classify(ProtocolError::Io(e), "write"))?;
        read_frame(&mut self.reader).map_err(|e| classify(e, "read"))
    }

    /// Evaluate a batch of cells; outcomes come back request-ordered and
    /// byte-identical to a local
    /// [`Session::eval_batch`](asip_core::session::Session::eval_batch)
    /// of the same requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] under server overload (retryable),
    /// [`ServeError::Timeout`] on an expired deadline, or any
    /// [`ServeError::Protocol`].
    pub fn eval(&mut self, reqs: &[EvalRequest]) -> Result<Vec<EvalOutcome>, ServeError> {
        match self.call(&Message::Eval(reqs.to_vec()))? {
            Message::Outcomes(outs) => Ok(outs),
            Message::Busy { in_flight, limit } => Err(ServeError::Busy { in_flight, limit }),
            other => Err(ServeError::Unexpected { got: other.name() }),
        }
    }

    /// Fetch the server process's metrics snapshot (counters, latency
    /// histograms, cache counters) — what the shard coordinator scrapes
    /// for its per-shard table, and the one way to read a server's cache
    /// counters.
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Protocol`] or an unexpected reply.
    pub fn metrics(&mut self) -> Result<MetricsReply, ServeError> {
        match self.call(&Message::Metrics)? {
            Message::MetricsReply(m) => Ok(*m),
            other => Err(ServeError::Unexpected { got: other.name() }),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Protocol`] or an unexpected reply.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.call(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(ServeError::Unexpected { got: other.name() }),
        }
    }

    /// Ask the server to stop accepting connections and exit its serve
    /// loop. The connection is consumed — the server hangs up after
    /// acknowledging.
    ///
    /// # Errors
    ///
    /// Any [`ServeError::Protocol`] or an unexpected reply.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        match self.call(&Message::Shutdown)? {
            Message::Pong => Ok(()),
            other => Err(ServeError::Unexpected { got: other.name() }),
        }
    }
}
