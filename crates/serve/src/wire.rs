//! The wire protocol: length-prefixed, version-stamped, checksummed binary
//! frames carrying [`Message`]s between clients, servers and shard workers.
//! A client sends `Eval`, `Metrics`, `Ping` or `Shutdown`; the server
//! answers with `Outcomes` or `Busy`, `MetricsReply`, or `Pong`.
//!
//! # Frame layout
//!
//! ```text
//! magic    8 B   b"ASIPSRV\0"
//! version  4 B   WIRE_VERSION, little-endian
//! kind     1 B   message tag (see Message)
//! length   4 B   payload byte count (<= MAX_PAYLOAD)
//! payload  n B   the message body, asip_isa::codec-encoded
//! checksum 8 B   FNV-1a over everything above, little-endian
//! ```
//!
//! The same self-describing discipline as the disk artifact container: a
//! reader verifies magic, version, length bound and checksum before ever
//! decoding a payload, so a truncated, corrupt, wrong-version or garbage
//! frame is a typed [`ProtocolError`] — never a panic, never an unbounded
//! allocation, and (because the length is bounded and the checksum covers
//! the declared length) never a hang waiting for bytes a confused peer
//! will not send.

use asip_core::cache::CacheStats;
use asip_core::session::{EvalOutcome, EvalRequest};
use asip_isa::codec::{fnv1a, Codec, CodecError, Reader, Writer, FNV1A_BASIS};
use asip_obs::{CounterSnapshot, HistogramSnapshot, Snapshot};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: fixed 8 bytes leading every frame.
pub const MAGIC: [u8; 8] = *b"ASIPSRV\0";

/// Wire format version. Bump on any frame- or payload-layout change; a
/// mismatch is a typed [`ProtocolError::BadVersion`], never a misparse.
/// Version 2 added the `Metrics`/`MetricsReply` kinds; version 3 added
/// `TierStats::tmp_reclaimed` to every stats-carrying payload; version 4
/// dropped the prepared-engine counters from `CacheStats`; version 5
/// retired kinds 1 and 18 (the `Stats` request and its reply), which now
/// decode as [`ProtocolError::BadKind`]; version 6 added tag 5
/// (`InvalidMachine`) to the `ToolchainError` inside an outcome. An
/// `EvalRequest` still ends with its ISE budget as one `f64`.
pub const WIRE_VERSION: u32 = 6;

/// Upper bound on a frame payload (64 MiB). A declared length beyond this
/// is rejected before any allocation — a garbage length field cannot make
/// a reader balloon or hang.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Everything that can go wrong reading a frame. Malformed input is always
/// one of these — never a panic.
#[derive(Debug)]
pub enum ProtocolError {
    /// The transport failed or ended mid-frame.
    Io(io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The frame did not start with [`MAGIC`].
    BadMagic,
    /// The peer speaks a different [`WIRE_VERSION`].
    BadVersion {
        /// Version the frame declared.
        got: u32,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload byte count.
        len: u32,
    },
    /// The frame checksum did not match its contents.
    BadChecksum,
    /// The frame kind byte names no known message.
    BadKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// The payload failed to decode as the kind's message body.
    Codec(CodecError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport: {e}"),
            ProtocolError::Closed => f.write_str("connection closed"),
            ProtocolError::BadMagic => f.write_str("bad frame magic"),
            ProtocolError::BadVersion { got } => {
                write!(f, "wire version {got} (expected {WIRE_VERSION})")
            }
            ProtocolError::Oversized { len } => {
                write!(f, "payload length {len} exceeds {MAX_PAYLOAD}")
            }
            ProtocolError::BadChecksum => f.write_str("frame checksum mismatch"),
            ProtocolError::BadKind { kind } => write!(f, "unknown message kind {kind}"),
            ProtocolError::Codec(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

/// The `Metrics` RPC response body: the worker process's full metrics
/// snapshot plus its session cache counters, so a shard coordinator can
/// print per-shard cells, busy rejections, latency quantiles and cache hit
/// ratios without any shared state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReply {
    /// Every registered counter and histogram, sorted by name.
    pub metrics: Snapshot,
    /// The serving session's cache counters.
    pub cache: CacheStats,
}

impl MetricsReply {
    /// Snapshot this process's metrics registry alongside `cache`.
    pub fn from_process(cache: CacheStats) -> MetricsReply {
        MetricsReply {
            metrics: asip_obs::snapshot(),
            cache,
        }
    }
}

impl Codec for MetricsReply {
    fn encode(&self, w: &mut Writer) {
        encode_snapshot(&self.metrics, w);
        self.cache.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MetricsReply {
            metrics: decode_snapshot(r)?,
            cache: Codec::decode(r)?,
        })
    }
}

/// Encode a metrics snapshot: the counters, then the histograms, each as a
/// `u32` count and its entries. These are functions, not a [`Codec`] impl,
/// because neither the trait nor [`Snapshot`] belongs to this crate.
fn encode_snapshot(snap: &Snapshot, w: &mut Writer) {
    w.put_u32(snap.counters.len() as u32);
    for c in &snap.counters {
        w.put_str(&c.name);
        w.put_u64(c.value);
    }
    w.put_u32(snap.histograms.len() as u32);
    for h in &snap.histograms {
        w.put_str(&h.name);
        w.put_u64(h.count);
        w.put_u64(h.sum_ns);
        w.put_u32(h.buckets.len() as u32);
        for &(i, n) in &h.buckets {
            w.put_u8(i);
            w.put_u64(n);
        }
    }
}

/// Decode what [`encode_snapshot`] writes.
fn decode_snapshot(r: &mut Reader<'_>) -> Result<Snapshot, CodecError> {
    let len = r.get_len()?;
    let mut counters = Vec::with_capacity(len);
    for _ in 0..len {
        counters.push(CounterSnapshot {
            name: r.get_str()?,
            value: r.get_u64()?,
        });
    }
    let len = r.get_len()?;
    let mut histograms = Vec::with_capacity(len);
    for _ in 0..len {
        let name = r.get_str()?;
        let count = r.get_u64()?;
        let sum_ns = r.get_u64()?;
        let len = r.get_len()?;
        let mut buckets = Vec::with_capacity(len.min(64));
        for _ in 0..len {
            buckets.push((r.get_u8()?, r.get_u64()?));
        }
        histograms.push(HistogramSnapshot {
            name,
            count,
            sum_ns,
            buckets,
        });
    }
    Ok(Snapshot {
        counters,
        histograms,
    })
}

/// Every message the protocol carries, requests and responses alike.
///
/// Stable kind bytes — never renumber or reuse: requests are 0–15,
/// responses 16+. Kinds 1 and 18 are retired (see [`WIRE_VERSION`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Request: evaluate a batch of cells, outcomes in request order.
    Eval(Vec<EvalRequest>),
    /// Request: liveness probe.
    Ping,
    /// Request: stop accepting connections and exit the serve loop.
    Shutdown,
    /// Request: report the process's metrics snapshot.
    Metrics,
    /// Response to `Eval`: request-ordered outcomes.
    Outcomes(Vec<EvalOutcome>),
    /// Response to `Eval` under overload: admission control rejected the
    /// batch instead of queueing it unboundedly. Retry later.
    Busy {
        /// Cells currently in flight on the server.
        in_flight: u64,
        /// The server's admission limit.
        limit: u64,
    },
    /// Response to `Ping` and `Shutdown`.
    Pong,
    /// Response to `Metrics` (boxed: the metrics body dwarfs every other
    /// variant).
    MetricsReply(Box<MetricsReply>),
}

impl Message {
    /// The frame kind byte for this message.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Eval(_) => 0,
            Message::Ping => 2,
            Message::Shutdown => 3,
            Message::Metrics => 4,
            Message::Outcomes(_) => 16,
            Message::Busy { .. } => 17,
            Message::Pong => 19,
            Message::MetricsReply(_) => 20,
        }
    }

    /// A short human name for error reporting.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Eval(_) => "Eval",
            Message::Ping => "Ping",
            Message::Shutdown => "Shutdown",
            Message::Metrics => "Metrics",
            Message::Outcomes(_) => "Outcomes",
            Message::Busy { .. } => "Busy",
            Message::Pong => "Pong",
            Message::MetricsReply(_) => "MetricsReply",
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::Eval(reqs) => reqs.encode(&mut w),
            Message::Outcomes(outs) => outs.encode(&mut w),
            Message::Busy { in_flight, limit } => {
                w.put_u64(*in_flight);
                w.put_u64(*limit);
            }
            Message::MetricsReply(m) => m.encode(&mut w),
            Message::Ping | Message::Shutdown | Message::Metrics | Message::Pong => {}
        }
        w.into_bytes()
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, ProtocolError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            0 => Message::Eval(Vec::decode(&mut r)?),
            2 => Message::Ping,
            3 => Message::Shutdown,
            4 => Message::Metrics,
            16 => Message::Outcomes(Vec::decode(&mut r)?),
            17 => Message::Busy {
                in_flight: r.get_u64()?,
                limit: r.get_u64()?,
            },
            19 => Message::Pong,
            20 => Message::MetricsReply(Box::new(MetricsReply::decode(&mut r)?)),
            kind => return Err(ProtocolError::BadKind { kind }),
        };
        r.finish().map_err(ProtocolError::Codec)?;
        Ok(msg)
    }

    /// Encode this message as one complete frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(8 + 4 + 1 + 4 + payload.len() + 8);
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        frame.push(self.kind());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let sum = fnv1a(FNV1A_BASIS, &frame);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame
    }

    /// Decode one complete frame from a byte slice (must consume it
    /// exactly). The streaming path is [`read_frame`]; this entry point is
    /// what the fuzz suite hammers.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; truncated input maps to
    /// [`ProtocolError::Codec`]`(`[`CodecError::Truncated`]`)`.
    pub fn from_frame(bytes: &[u8]) -> Result<Message, ProtocolError> {
        let need = |n: usize, at: usize| -> Result<(), ProtocolError> {
            if bytes.len() < at + n {
                Err(ProtocolError::Codec(CodecError::Truncated))
            } else {
                Ok(())
            }
        };
        need(8, 0)?;
        if bytes[..8] != MAGIC {
            return Err(ProtocolError::BadMagic);
        }
        need(4, 8)?;
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != WIRE_VERSION {
            return Err(ProtocolError::BadVersion { got: version });
        }
        need(1 + 4, 12)?;
        let kind = bytes[12];
        let len = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(ProtocolError::Oversized { len });
        }
        let len = len as usize;
        need(len + 8, 17)?;
        let body_end = 17 + len;
        let declared =
            u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().expect("8 bytes"));
        if declared != fnv1a(FNV1A_BASIS, &bytes[..body_end]) {
            return Err(ProtocolError::BadChecksum);
        }
        if bytes.len() != body_end + 8 {
            return Err(ProtocolError::Codec(CodecError::Trailing {
                extra: bytes.len() - body_end - 8,
            }));
        }
        Message::decode_payload(kind, &bytes[17..body_end])
    }
}

/// Write one frame to a stream (buffered by the frame itself: one `write_all`).
///
/// When fault injection is active ([`crate::faults`]), an outgoing frame
/// may be dropped (connection reset before any byte ships), torn (a
/// prefix ships, then the reset — the peer reads a truncated frame), or
/// corrupted (one bit flipped — the peer's checksum rejects it). The
/// inactive-path cost is one relaxed atomic load.
///
/// # Errors
///
/// Any transport [`io::Error`], including injected resets.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    let mut frame = msg.to_frame();
    if crate::faults::active() {
        match crate::faults::on_write(&mut frame) {
            crate::faults::WriteFault::Pass => {}
            crate::faults::WriteFault::Drop => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected connection drop",
                ));
            }
            crate::faults::WriteFault::Torn(cut) => {
                let cut = cut.min(frame.len());
                w.write_all(&frame[..cut])?;
                w.flush()?;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected torn frame",
                ));
            }
        }
    }
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame from a stream, verifying magic, version, length bound and
/// checksum before decoding the payload.
///
/// # Errors
///
/// [`ProtocolError::Closed`] on clean EOF at a frame boundary; any other
/// [`ProtocolError`] for malformed or truncated frames.
pub fn read_frame(r: &mut impl Read) -> Result<Message, ProtocolError> {
    if crate::faults::active() {
        crate::faults::maybe_stall();
    }
    // Header through the length field.
    let mut head = [0u8; 17];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Err(ProtocolError::Closed),
            Ok(0) => return Err(ProtocolError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    // Span starts only after the header arrived: the blocking wait for a
    // peer's next frame is idle time, not decode time.
    let mut span = asip_obs::span("serve", "frame");
    if head[..8] != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if version != WIRE_VERSION {
        return Err(ProtocolError::BadVersion { got: version });
    }
    let kind = head[12];
    let len = u32::from_le_bytes(head[13..17].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len });
    }
    let mut rest = vec![0u8; len as usize + 8];
    r.read_exact(&mut rest)?;
    let body_end = rest.len() - 8;
    let declared = u64::from_le_bytes(rest[body_end..].try_into().expect("8 bytes"));
    if declared != fnv1a(fnv1a(FNV1A_BASIS, &head), &rest[..body_end]) {
        return Err(ProtocolError::BadChecksum);
    }
    let msg = Message::decode_payload(kind, &rest[..body_end])?;
    span.note(msg.name());
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_isa::MachineDescription;

    fn roundtrip(msg: &Message) {
        let frame = msg.to_frame();
        assert_eq!(&Message::from_frame(&frame).expect("decode"), msg);
        // Streaming and slice decoding agree.
        let mut cursor = io::Cursor::new(frame);
        assert_eq!(&read_frame(&mut cursor).expect("stream decode"), msg);
    }

    #[test]
    fn all_message_shapes_roundtrip() {
        let fir = asip_workloads::by_name("fir").unwrap();
        let req = EvalRequest::new(fir, MachineDescription::ember2()).with_ise(8.0);
        roundtrip(&Message::Eval(vec![req.clone(), req]));
        roundtrip(&Message::Eval(vec![]));
        roundtrip(&Message::Ping);
        roundtrip(&Message::Shutdown);
        roundtrip(&Message::Busy {
            in_flight: 7,
            limit: 4,
        });
        roundtrip(&Message::Pong);
        roundtrip(&Message::Metrics);
        roundtrip(&Message::MetricsReply(Box::new(MetricsReply {
            metrics: Snapshot {
                counters: vec![CounterSnapshot {
                    name: "cache.mem.evictions".into(),
                    value: 3,
                }],
                histograms: vec![HistogramSnapshot {
                    name: "cell.eval_ns".into(),
                    count: 4,
                    sum_ns: 1000,
                    buckets: vec![(8, 3), (10, 1)],
                }],
            },
            cache: CacheStats::default(),
        })));
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let good = Message::Ping.to_frame();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Message::from_frame(&bad),
            Err(ProtocolError::BadMagic)
        ));
        // Wrong version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            Message::from_frame(&bad),
            Err(ProtocolError::BadVersion { got: 99 })
        ));
        // Unknown kinds, retired ones included (checksum re-stamped so the
        // kind check is reached).
        for kind in [1, 18, 200] {
            let mut bad = good.clone();
            bad[12] = kind;
            let body_end = bad.len() - 8;
            let sum = fnv1a(FNV1A_BASIS, &bad[..body_end]).to_le_bytes();
            bad[body_end..].copy_from_slice(&sum);
            assert!(
                matches!(
                    Message::from_frame(&bad),
                    Err(ProtocolError::BadKind { kind: k }) if k == kind
                ),
                "kind {kind}"
            );
        }
        // Flipped payload/checksum byte.
        let mut bad = good.clone();
        let at = bad.len() - 1;
        bad[at] ^= 1;
        assert!(matches!(
            Message::from_frame(&bad),
            Err(ProtocolError::BadChecksum)
        ));
        // Truncation at every prefix length.
        for cut in 0..good.len() {
            assert!(
                Message::from_frame(&good[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Oversized declared length.
        let mut bad = good.clone();
        bad[13..17].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Message::from_frame(&bad),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_truncated() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(ProtocolError::Closed)));
        let frame = Message::Ping.to_frame();
        let mut cut = io::Cursor::new(frame[..10].to_vec());
        assert!(matches!(read_frame(&mut cut), Err(ProtocolError::Io(_))));
    }
}
