//! The self-describing, versioned container wrapped around every persisted
//! cache entry.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------+---------+-------+--------------+------------------+----------+
//! | magic  | version | stage | key          | payload          | checksum |
//! | 8 B    | u32     | u8    | u32 + bytes  | u32 + bytes      | u64      |
//! +--------+---------+-------+--------------+------------------+----------+
//! ```
//!
//! The **key bytes** are stored, not a hash of them: a load compares them
//! exactly against the requested key, like the memory tier's stored-key
//! check, so two keys whose file names collide can never serve each
//! other's artifact. Keys are codec bytes, not text. The trailing checksum
//! is 64-bit FNV-1a over everything before it, catching truncation and bit
//! rot; the version field retires whole formats at once. Every
//! verification failure maps to an [`EntryError`] and, at the store layer,
//! to a counted, silent recompute.

use super::StageKind;
use asip_isa::codec::{fnv1a, CodecError, Reader, Writer, FNV1A_BASIS};

/// Version stamp of the persisted artifact format. Bump whenever any
/// artifact [`Codec`](asip_isa::codec::Codec), any stage key or this
/// container changes incompatibly; old entries then read as stale and are
/// recomputed. Version 2: byte keys built from codec encodings, and
/// Simulate entries that carry the compile statistics and code size.
/// Version 3: Compile keys no longer lead with a target byte (the
/// machine's own encoding carries its target).
pub const FORMAT_VERSION: u32 = 3;

/// Magic bytes opening every entry file.
const MAGIC: [u8; 8] = *b"ASIPART\0";

/// Why a persisted entry was rejected. All variants are handled
/// identically — drop the entry, count a stale drop, recompute — but the
/// distinction keeps tests honest about *which* defense caught a corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The file does not open with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The entry was written for a different pipeline stage.
    StageMismatch,
    /// The stored key differs from the requested key (file-name collision
    /// or a renamed file).
    KeyMismatch,
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// Structurally malformed (truncated or trailing bytes).
    Malformed(CodecError),
}

impl From<CodecError> for EntryError {
    fn from(e: CodecError) -> Self {
        EntryError::Malformed(e)
    }
}

/// Wrap `payload` in the versioned container for (stage, key).
pub(crate) fn encode_entry(stage: StageKind, key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u8(stage as u8);
    w.put_bytes(key);
    w.put_bytes(payload);
    let mut bytes = w.into_bytes();
    let checksum = fnv1a(FNV1A_BASIS, &bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Unwrap an entry, verifying magic, version, stage, key bytes and
/// checksum. Returns the artifact payload bytes.
pub(crate) fn decode_entry<'a>(
    bytes: &'a [u8],
    stage: StageKind,
    key: &[u8],
) -> Result<&'a [u8], EntryError> {
    if bytes.len() < 8 + MAGIC.len() {
        return Err(EntryError::Malformed(CodecError::Truncated));
    }
    let (content, tail) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let mut r = Reader::new(content);
    if r.get_raw(MAGIC.len())? != MAGIC {
        return Err(EntryError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(EntryError::BadVersion(version));
    }
    if r.get_u8()? != stage as u8 {
        return Err(EntryError::StageMismatch);
    }
    let key_len = r.get_len()?;
    if r.get_raw(key_len)? != key {
        return Err(EntryError::KeyMismatch);
    }
    let payload_len = r.get_len()?;
    let payload = r.get_raw(payload_len)?;
    r.finish()?;
    // Checked last so the error diagnoses *what* mismatched when the
    // header itself is intact.
    if fnv1a(FNV1A_BASIS, content) != checksum {
        return Err(EntryError::BadChecksum);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys are codec bytes: this one is not valid UTF-8 (`\xff` never
    /// is, and `\xc3` must be followed by a continuation byte).
    const KEY: &[u8] = b"\xff\x00codec\xc3\x28key";

    #[test]
    fn roundtrip_and_every_defense_fires() {
        let stage = StageKind::Compile;
        let payload = b"artifact bytes".to_vec();
        let good = encode_entry(stage, KEY, &payload);
        assert_eq!(decode_entry(&good, stage, KEY), Ok(&payload[..]));

        // Truncation.
        assert!(matches!(
            decode_entry(&good[..good.len() / 2], stage, KEY),
            Err(EntryError::Malformed(_) | EntryError::BadChecksum)
        ));
        // Garbage.
        assert!(decode_entry(&[0u8; 64], stage, KEY).is_err());
        // Magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_entry(&bad, stage, KEY), Err(EntryError::BadMagic));
        // Version.
        let mut bad = good.clone();
        bad[8] = 0xee;
        assert!(matches!(
            decode_entry(&bad, stage, KEY),
            Err(EntryError::BadVersion(_))
        ));
        // Stage.
        assert_eq!(
            decode_entry(&good, StageKind::Parse, KEY),
            Err(EntryError::StageMismatch)
        );
        // Key: a different byte, and a strict prefix.
        let mut other = KEY.to_vec();
        other[0] ^= 0x01;
        assert_eq!(
            decode_entry(&good, stage, &other),
            Err(EntryError::KeyMismatch)
        );
        assert_eq!(
            decode_entry(&good, stage, &KEY[..KEY.len() - 1]),
            Err(EntryError::KeyMismatch)
        );
        // Payload bit flip → checksum.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 12] ^= 0x01;
        assert_eq!(decode_entry(&bad, stage, KEY), Err(EntryError::BadChecksum));
    }
}
