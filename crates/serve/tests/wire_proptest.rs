//! Property fuzz of the wire codec: every well-formed message survives a
//! frame roundtrip byte-exactly, and every mangled frame — truncated,
//! bit-flipped, wrong-version, or pure garbage — decodes to a typed
//! [`ProtocolError`] without panicking or hanging.

use asip_core::session::EvalRequest;
use asip_isa::MachineDescription;
use asip_obs::{CounterSnapshot, HistogramSnapshot, Snapshot};
use asip_serve::wire::{Message, MetricsReply, ProtocolError, MAGIC, MAX_PAYLOAD, WIRE_VERSION};
use proptest::prelude::*;

/// FNV-1a, restated here so the tests can re-stamp checksums on frames
/// they deliberately corrupt upstream of the checksum field.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn restamp(frame: &mut [u8]) {
    let body_end = frame.len() - 8;
    let sum = fnv1a(&frame[..body_end]).to_le_bytes();
    frame[body_end..].copy_from_slice(&sum);
}

/// A deterministic message zoo indexed by a seed: all kinds, with seeded
/// payload variation for the ones that carry data.
fn message_for(seed: u64) -> Message {
    let machines = [
        MachineDescription::ember1(),
        MachineDescription::ember2(),
        MachineDescription::ember4(),
        MachineDescription::ember8(),
        MachineDescription::ember4x2(),
    ];
    let workloads = asip_workloads::all();
    let req = |s: u64| {
        let m = machines[(s as usize) % machines.len()].clone();
        let w = workloads[(s as usize / 7) % workloads.len()].clone();
        EvalRequest::new(w, m).with_ise((s % 33) as f64)
    };
    match seed % 7 {
        0 => Message::Eval((0..seed % 4).map(|i| req(seed.wrapping_add(i))).collect()),
        1 => Message::Ping,
        2 => Message::Shutdown,
        3 => Message::Busy {
            in_flight: seed.rotate_left(17),
            limit: seed.rotate_right(9),
        },
        4 => Message::Metrics,
        5 => Message::MetricsReply(Box::new(MetricsReply {
            metrics: Snapshot {
                counters: (0..seed % 5)
                    .map(|i| CounterSnapshot {
                        name: format!("c.{i}"),
                        value: seed.rotate_left(i as u32),
                    })
                    .collect(),
                histograms: (0..seed % 3)
                    .map(|i| HistogramSnapshot {
                        name: format!("h.{i}"),
                        count: seed % 100,
                        sum_ns: seed.rotate_right(5),
                        buckets: (0..(seed % 4) as u8).map(|b| (b * 7, seed % 13)).collect(),
                    })
                    .collect(),
            },
            cache: Default::default(),
        })),
        _ => Message::Pong,
    }
}

/// A reader that delivers its bytes in a seeded schedule of short reads —
/// the stream shape a stalling peer or a torn `write` produces: every
/// `read` returns between 1 byte and a small seeded chunk, interleaved
/// with spurious `Interrupted` errors, then clean EOF.
struct ChunkedReader {
    bytes: Vec<u8>,
    at: usize,
    state: u64,
}

impl ChunkedReader {
    fn new(bytes: Vec<u8>, seed: u64) -> ChunkedReader {
        ChunkedReader {
            bytes,
            at: 0,
            state: seed | 1,
        }
    }

    fn next_draw(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .rotate_left(13)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.state
    }
}

impl std::io::Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at >= self.bytes.len() || buf.is_empty() {
            return Ok(0);
        }
        let draw = self.next_draw();
        if draw.is_multiple_of(5) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let chunk = (draw as usize % 7 + 1)
            .min(buf.len())
            .min(self.bytes.len() - self.at);
        buf[..chunk].copy_from_slice(&self.bytes[self.at..self.at + chunk]);
        self.at += chunk;
        Ok(chunk)
    }
}

proptest! {
    #[test]
    fn frames_roundtrip_byte_exactly(seed in any::<u64>()) {
        let msg = message_for(seed);
        let frame = msg.to_frame();
        let decoded = Message::from_frame(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(&decoded, &msg);
        // Re-encoding the decoded message reproduces the exact frame: the
        // byte-identity guarantee sharding relies on.
        prop_assert_eq!(decoded.to_frame(), frame);
    }

    #[test]
    fn every_truncation_is_a_typed_error(seed in any::<u64>(), cut in any::<u64>()) {
        let frame = message_for(seed).to_frame();
        let cut = (cut as usize) % frame.len();
        prop_assert!(Message::from_frame(&frame[..cut]).is_err());
        // The streaming reader on the same prefix: clean EOF at offset 0 is
        // Closed, anything later is a typed error — never a success, never
        // a panic.
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match asip_serve::read_frame(&mut cursor) {
            Err(ProtocolError::Closed) => prop_assert_eq!(cut, 0),
            Err(_) => prop_assert!(cut > 0),
            Ok(m) => panic!("truncated frame decoded as {}", m.name()),
        }
    }

    #[test]
    fn every_bit_flip_is_a_typed_error(seed in any::<u64>(), pos in any::<u64>(), bit in 0u8..8) {
        let mut frame = message_for(seed).to_frame();
        let pos = (pos as usize) % frame.len();
        frame[pos] ^= 1 << bit;
        // The checksum covers every byte before it, and a flip inside the
        // checksum mismatches the body — no single-bit flip may pass.
        prop_assert!(Message::from_frame(&frame).is_err());
    }

    #[test]
    fn wrong_versions_are_rejected_by_number(version in any::<u32>()) {
        let mut frame = Message::Ping.to_frame();
        frame[8..12].copy_from_slice(&version.to_le_bytes());
        restamp(&mut frame);
        match Message::from_frame(&frame) {
            Ok(Message::Ping) => prop_assert_eq!(version, WIRE_VERSION),
            Err(ProtocolError::BadVersion { got }) => {
                prop_assert_ne!(version, WIRE_VERSION);
                prop_assert_eq!(got, version);
            }
            other => panic!("unexpected decode result {other:?}"),
        }
    }

    #[test]
    fn unknown_kinds_are_rejected_by_byte(kind in any::<u8>()) {
        let mut frame = Message::Ping.to_frame();
        frame[12] = kind;
        restamp(&mut frame);
        match Message::from_frame(&frame) {
            Ok(msg) => prop_assert_eq!(msg.kind(), kind, "known kind decodes as itself"),
            Err(ProtocolError::BadKind { kind: got }) => prop_assert_eq!(got, kind),
            // Known kinds whose payload is non-empty fail the decode
            // instead (a Ping body is empty where e.g. Busy wants bytes).
            Err(ProtocolError::Codec(_)) => {}
            other => panic!("unexpected decode result {other:?}"),
        }
    }

    #[test]
    fn garbage_never_panics_and_never_parses(seed in any::<u64>(), len in 0u64..600) {
        // SplitMix-style garbage; deterministic per seed.
        let mut state = seed;
        let mut bytes = Vec::with_capacity(len as usize);
        for _ in 0..len {
            state = state
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .rotate_left(13)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            bytes.push(state as u8);
        }
        let garbage = bytes.len() < 8 || bytes[..8] != MAGIC;
        let slice_result = Message::from_frame(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let stream_result = asip_serve::read_frame(&mut cursor);
        if garbage {
            prop_assert!(slice_result.is_err());
            prop_assert!(stream_result.is_err());
        }
    }

    #[test]
    fn chunked_delivery_decodes_byte_exactly(seed in any::<u64>(), sched in any::<u64>()) {
        // However a peer fragments its writes — 1-to-7-byte chunks in a
        // seeded schedule, with spurious Interrupted results — the
        // streaming reader reassembles the exact message, and two frames
        // back to back stay frame-aligned.
        let msg = message_for(seed);
        let msg2 = message_for(seed.wrapping_add(1));
        let mut bytes = msg.to_frame();
        bytes.extend_from_slice(&msg2.to_frame());
        let mut reader = ChunkedReader::new(bytes, sched);
        prop_assert_eq!(
            asip_serve::read_frame(&mut reader).expect("first frame reassembles"),
            msg
        );
        prop_assert_eq!(
            asip_serve::read_frame(&mut reader).expect("second frame reassembles"),
            msg2
        );
        prop_assert!(matches!(
            asip_serve::read_frame(&mut reader),
            Err(ProtocolError::Closed)
        ));
    }

    #[test]
    fn torn_chunked_frames_are_typed_errors(
        seed in any::<u64>(),
        sched in any::<u64>(),
        cut in any::<u64>(),
    ) {
        // A peer that dies mid-write leaves a torn frame; delivered in
        // chunks it must surface as a typed error — Closed only at a frame
        // boundary, Io(UnexpectedEof)/Codec inside one. Never a success,
        // never a hang, never a panic.
        let frame = message_for(seed).to_frame();
        let cut = (cut as usize) % frame.len();
        let mut reader = ChunkedReader::new(frame[..cut].to_vec(), sched);
        match asip_serve::read_frame(&mut reader) {
            Err(ProtocolError::Closed) => prop_assert_eq!(cut, 0),
            Err(_) => prop_assert!(cut > 0),
            Ok(m) => panic!("torn frame decoded as {}", m.name()),
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation(extra in any::<u32>()) {
        let mut frame = Message::Ping.to_frame();
        let len = MAX_PAYLOAD.saturating_add(extra.max(1));
        frame[13..17].copy_from_slice(&len.to_le_bytes());
        restamp(&mut frame);
        prop_assert!(matches!(
            Message::from_frame(&frame),
            Err(ProtocolError::Oversized { len: got }) if got == len
        ));
    }
}
