//! Stage keys, and the artifact payloads they share.
//!
//! A stage's key is the codec encoding of everything the stage reads, its
//! parent artifacts' payloads included (see the [cache docs](super)). A
//! [`Key`] holds that encoding without copying the parents: it keeps the
//! stage's own encoded bytes, and each parent [`Payload`] by reference
//! with the offset in those bytes it sits at. [`Key::to_bytes`] writes the
//! flat encoding, byte for byte the concatenation, which is what the disk
//! tier stores and compares.
//!
//! Two keys are equal when their own bytes are equal and their parents
//! are, offset by offset, so equal keys are equal flat. A payload compares
//! by pointer before it compares bytes: a warm lookup whose parents came
//! from the memory tier reads only the stage's own bytes and the stored
//! key's, never a parent's. A payload carries the hash of its bytes,
//! taken once when it is made, and a key's hash covers its own bytes and
//! its parents' offsets and hashes. A key is hashed when it is built, and
//! the memory tier buckets by that hash.

use super::{hash64, KEY_SEED};
use asip_isa::codec::Writer;
use std::ops::Deref;
use std::sync::Arc;

/// An artifact's codec encoding as the cache holds it: shared bytes and
/// their hash.
#[derive(Debug, Clone)]
pub(crate) struct Payload {
    bytes: Arc<[u8]>,
    hash: u64,
}

impl Payload {
    pub(crate) fn new(bytes: Arc<[u8]>) -> Payload {
        let hash = hash64(&bytes, KEY_SEED);
        Payload { bytes, hash }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
            || (self.hash == other.hash && self.bytes == other.bytes)
    }
}

/// A stage key. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Key {
    own: Vec<u8>,
    /// Each parent payload, in key order, with its offset in `own`.
    parents: Vec<(usize, Payload)>,
    hash: u64,
}

impl Key {
    /// The hash the memory tier buckets by.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }

    /// Length of the flat key in bytes.
    pub(crate) fn len(&self) -> usize {
        self.own.len() + self.parents.iter().map(|(_, p)| p.len()).sum::<usize>()
    }

    /// The flat key: the stage's own bytes with each parent payload in
    /// place.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut flat = Vec::with_capacity(self.len());
        let mut from = 0;
        for (at, payload) in &self.parents {
            flat.extend_from_slice(&self.own[from..*at]);
            flat.extend_from_slice(payload);
            from = *at;
        }
        flat.extend_from_slice(&self.own[from..]);
        flat
    }
}

/// Builds a [`Key`]: the stage encodes its own inputs into
/// [`KeyWriter::writer`] and appends each parent with
/// [`KeyWriter::parent`], in key order.
#[derive(Default)]
pub(crate) struct KeyWriter {
    own: Writer,
    parents: Vec<(usize, Payload)>,
}

impl KeyWriter {
    pub(crate) fn new() -> KeyWriter {
        KeyWriter::default()
    }

    /// The writer for the stage's own bytes.
    pub(crate) fn writer(&mut self) -> &mut Writer {
        &mut self.own
    }

    /// Append a parent artifact's payload, shared.
    pub(crate) fn parent(&mut self, payload: &Payload) {
        self.parents.push((self.own.len(), payload.clone()));
    }

    pub(crate) fn finish(self) -> Key {
        let own = self.own.into_bytes();
        let hash = self
            .parents
            .iter()
            .fold(hash64(&own, KEY_SEED), |h, (at, p)| {
                hash64(&p.hash.to_le_bytes(), h ^ *at as u64)
            });
        Key {
            own,
            parents: self.parents,
            hash,
        }
    }
}

/// A key of bytes alone, with no parent.
#[cfg(test)]
impl From<&[u8]> for Key {
    fn from(bytes: &[u8]) -> Key {
        let mut key = KeyWriter::new();
        key.writer().put_raw(bytes);
        key.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bytes: &[u8]) -> Payload {
        Payload::new(Arc::from(bytes))
    }

    /// A key of `own` bytes with `parents` spliced in at their offsets.
    fn key(own: &[u8], parents: &[(usize, &Payload)]) -> Key {
        let mut key = KeyWriter::new();
        let mut from = 0;
        for (at, p) in parents {
            key.writer().put_raw(&own[from..*at]);
            key.parent(p);
            from = *at;
        }
        key.writer().put_raw(&own[from..]);
        key.finish()
    }

    #[test]
    fn flat_bytes_splice_each_parent_in_place() {
        let (a, b) = (payload(b"AAA"), payload(b"BB"));
        let k = key(b"xyz", &[(0, &a), (2, &b), (3, &a)]);
        assert_eq!(k.to_bytes(), b"AAAxyBBzAAA");
        assert_eq!(k.len(), 11);
        assert_eq!(key(b"xyz", &[]).to_bytes(), b"xyz");
        // Without parents a key hashes as its bytes.
        assert_eq!(key(b"xyz", &[]).hash(), hash64(b"xyz", KEY_SEED));
    }

    #[test]
    fn parents_compare_by_bytes_whoever_holds_them() {
        let a = payload(b"module");
        let copy = payload(b"module");
        let other = payload(b"modulf");
        let k = key(b"machine", &[(3, &a)]);
        // Another buffer with the same bytes: an equal key, equal hash.
        assert_eq!(k, key(b"machine", &[(3, &copy)]));
        assert_eq!(k.hash(), key(b"machine", &[(3, &copy)]).hash());
        for differs in [
            key(b"machine", &[(3, &other)]),
            key(b"machine", &[(4, &a)]),
            key(b"machinf", &[(3, &a)]),
            key(b"machine", &[(3, &a), (7, &a)]),
            key(b"machine", &[]),
        ] {
            assert_ne!(k, differs, "{:?}", differs.to_bytes());
            assert_ne!(k.hash(), differs.hash(), "{:?}", differs.to_bytes());
        }
    }
}
