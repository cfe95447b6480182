//! [`Blob`]: shared, immutable byte payloads.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use bytes::BufMut;

use crate::error::WireError;
use crate::reader::Reader;
use crate::wire::{put_varint, varint_len, Wire};

/// A raw byte payload: a shared, immutable handle with a compact
/// length-prefixed encoding.
///
/// `Vec<u8>` encodes each byte as a varint through the generic `Vec<T>`
/// impl; `Blob` stores bytes verbatim, which is what application data files
/// (music, slides) want.
///
/// A blob is refcounted storage plus a byte range, so cloning one, or
/// taking a [`slice`](Blob::slice) of it, shares the bytes instead of
/// copying them. Decoding from a shared input ([`from_blob`]) yields views
/// into that input. The in-memory layout never shows on the wire: the
/// encoding is the length prefix and the viewed bytes, exactly as for an
/// owned buffer.
///
/// Small payloads cost no more than a `Vec` would. The empty blob holds
/// no storage, and a payload of at most [`Blob::INLINE_MAX`] bytes (a
/// typical control message) lives inside the handle: neither allocates. A
/// payload of at most [`Blob::PACK_MAX`] bytes is packed into one
/// allocation with its refcount. Slicing an inline or packed blob copies
/// the (small) range instead of pinning the allocation.
///
/// [`from_blob`]: crate::from_blob
///
/// # Examples
///
/// ```
/// use mdagent_wire::{Blob, Wire};
///
/// let blob = Blob::zeroed(4096);
/// assert_eq!(blob.encoded_len(), 4096 + 2); // payload + 2-byte varint prefix
/// let copy = blob.clone();
/// assert!(copy.shares_storage_with(&blob)); // a refcount, not a memcpy
/// ```
#[derive(Clone, Default)]
pub struct Blob(Repr);

#[derive(Clone, Default)]
enum Repr {
    /// No bytes, no allocation.
    #[default]
    Empty,
    /// `1..=INLINE_MAX` bytes held in the handle, no allocation.
    Inline {
        len: u8,
        bytes: [u8; Blob::INLINE_MAX],
    },
    /// At most [`Blob::PACK_MAX`] bytes, in one allocation with the
    /// refcount.
    Packed(Arc<[u8]>),
    /// `start..end` of a larger buffer, adopted without a copy and shared
    /// by every view of it.
    Shared {
        bytes: Arc<Vec<u8>>,
        start: u32,
        end: u32,
    },
}

impl Blob {
    /// Largest payload held inside the handle itself.
    pub const INLINE_MAX: usize = 30;

    /// Largest payload kept packed with its refcount. Larger buffers are
    /// adopted as they are, with no copy, and views of them share them.
    pub const PACK_MAX: usize = 1024;

    /// Creates a blob of `len` zero bytes, handy for synthetic data files.
    pub fn zeroed(len: usize) -> Self {
        Blob::from(vec![0; len])
    }

    /// Byte length of the payload.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Packed(bytes) => bytes,
            // The range is checked wherever a view is built, so `get`
            // always succeeds; the empty fallback only keeps this total.
            Repr::Shared { bytes, start, end } => bytes
                .get(*start as usize..*end as usize)
                .unwrap_or_default(),
        }
    }

    /// The `len` bytes starting `offset` bytes into this blob; `None` when
    /// the range does not fit. A range of shared storage is a view of it;
    /// a range of an inline or packed blob is a copy (at most
    /// [`Blob::PACK_MAX`] bytes, and it pins nothing). An empty range
    /// holds no storage.
    pub fn slice(&self, offset: usize, len: usize) -> Option<Blob> {
        let end = offset.checked_add(len)?;
        if end > self.len() {
            return None;
        }
        if len == 0 {
            return Some(Blob::default());
        }
        match &self.0 {
            Repr::Shared { bytes, start, .. } => {
                // Both bounds lie within the shared buffer, whose length
                // fits `u32` by construction.
                let start_u32 = u32::try_from(offset).ok()?.checked_add(*start)?;
                let end_u32 = u32::try_from(len).ok()?.checked_add(start_u32)?;
                Some(Blob(Repr::Shared {
                    bytes: Arc::clone(bytes),
                    start: start_u32,
                    end: end_u32,
                }))
            }
            _ => self.as_slice().get(offset..end).map(Blob::from),
        }
    }

    /// Whether both blobs view the same allocation (so neither is a copy
    /// of the other). Empty blobs share nothing.
    pub fn shares_storage_with(&self, other: &Blob) -> bool {
        match (&self.0, &other.0) {
            (Repr::Packed(a), Repr::Packed(b)) => Arc::ptr_eq(a, b),
            (Repr::Shared { bytes: a, .. }, Repr::Shared { bytes: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Heap bytes this blob keeps alive: none when empty or inline, its
    /// own length when packed, the whole wire image for a view decoded
    /// from one.
    pub fn retained_len(&self) -> usize {
        match &self.0 {
            Repr::Empty | Repr::Inline { .. } => 0,
            Repr::Packed(bytes) => bytes.len(),
            Repr::Shared { bytes, .. } => bytes.len(),
        }
    }
}

impl From<Vec<u8>> for Blob {
    /// Takes ownership of the buffer without copying it. Buffers of at
    /// most [`Blob::PACK_MAX`] bytes are copied into one packed allocation
    /// instead, so a small blob keeps a single heap block.
    fn from(bytes: Vec<u8>) -> Self {
        match u32::try_from(bytes.len()) {
            Ok(end) if bytes.len() > Blob::PACK_MAX => Blob(Repr::Shared {
                bytes: Arc::new(bytes),
                start: 0,
                end,
            }),
            // Small, or too long for a `u32` range (never on the wire,
            // whose prefixes stop at 256 MiB): packed whole.
            _ => Blob::from(bytes.as_slice()),
        }
    }
}

impl From<&[u8]> for Blob {
    /// Copies the bytes into a new blob.
    fn from(bytes: &[u8]) -> Self {
        let mut inline = [0; Blob::INLINE_MAX];
        match inline.get_mut(..bytes.len()) {
            _ if bytes.is_empty() => Blob::default(),
            Some(dst) => {
                dst.copy_from_slice(bytes);
                Blob(Repr::Inline {
                    len: bytes.len() as u8,
                    bytes: inline,
                })
            }
            None if bytes.len() <= Blob::PACK_MAX => Blob(Repr::Packed(Arc::from(bytes))),
            None => Blob::from(bytes.to_vec()),
        }
    }
}

impl Deref for Blob {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Blob) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        // Two views of the same bytes are equal without reading them.
        std::ptr::eq(a, b) || a == b
    }
}

impl Eq for Blob {}

impl Hash for Blob {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Blob").field(&self.as_slice()).finish()
    }
}

impl Wire for Blob {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        // Through `Deref`: the wire image is the viewed bytes, whatever
        // storage and range hold them.
        let bytes: &[u8] = self;
        put_varint(buf, bytes.len() as u64);
        buf.put_slice(bytes);
    }
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        reader.take_blob(len)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_blob, from_bytes, to_bytes};

    #[test]
    fn blob_is_byte_exact() {
        let blob = Blob::zeroed(200);
        assert_eq!(blob.encoded_len(), 202);
        assert!(!blob.is_empty());
        assert_eq!(Blob::default().len(), 0);
    }

    #[test]
    fn handle_is_four_words() {
        assert_eq!(
            std::mem::size_of::<Blob>(),
            4 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn tiny_blobs_live_inline() {
        let bytes: Vec<u8> = (1..=Blob::INLINE_MAX as u8).collect();
        let tiny = Blob::from(bytes.clone());
        assert_eq!(&*tiny, &bytes[..]);
        assert_eq!(tiny.retained_len(), 0);
        assert!(!tiny.clone().shares_storage_with(&tiny));
        assert_eq!(&*tiny.slice(2, 3).unwrap(), &[3, 4, 5]);
        let next = Blob::from(vec![1; Blob::INLINE_MAX + 1]);
        assert_eq!(next.retained_len(), Blob::INLINE_MAX + 1);
        assert_eq!(to_bytes(&tiny), to_bytes(&Blob::from(bytes.as_slice())));
    }

    #[test]
    fn empty_blobs_hold_no_storage() {
        assert_eq!(Blob::default().retained_len(), 0);
        assert_eq!(Blob::from(Vec::new()).retained_len(), 0);
        assert_eq!(Blob::zeroed(0).retained_len(), 0);
        let big = Blob::zeroed(4096);
        assert_eq!(big.slice(10, 0).map(|b| b.retained_len()), Some(0));
        assert!(big.slice(10, 0).is_some_and(|b| b.is_empty()));
        let empty: Blob = from_blob(&Blob::from(to_bytes(&Blob::default()))).unwrap();
        assert_eq!(empty.retained_len(), 0);
    }

    #[test]
    fn clones_and_slices_of_large_blobs_share_storage() {
        let blob = Blob::from((0..4000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let copy = blob.clone();
        assert!(copy.shares_storage_with(&blob));
        let mid = blob.slice(10, 5).unwrap();
        assert_eq!(&*mid, &[10, 11, 12, 13, 14]);
        assert!(mid.shares_storage_with(&blob));
        let inner = mid.slice(1, 3).unwrap();
        assert_eq!(&*inner, &[11, 12, 13]);
        assert_eq!(inner.retained_len(), 4000);
        assert!(mid.slice(3, 3).is_none());
        assert!(blob.slice(usize::MAX, 2).is_none());
    }

    #[test]
    fn small_blobs_are_packed_and_sliced_by_copy() {
        let blob = Blob::from((0u8..100).collect::<Vec<u8>>());
        assert!(blob.clone().shares_storage_with(&blob));
        let mid = blob.slice(10, 50).unwrap();
        assert_eq!(mid[0], 10);
        assert!(!mid.shares_storage_with(&blob));
        assert_eq!(mid.retained_len(), 50);
        assert!(blob.slice(99, 2).is_none());
        let edge = Blob::zeroed(Blob::PACK_MAX);
        assert_eq!(edge.retained_len(), Blob::PACK_MAX);
        assert!(!edge.slice(0, 1).unwrap().shares_storage_with(&edge));
        let over = Blob::zeroed(Blob::PACK_MAX + 1);
        assert!(over.slice(0, 1).unwrap().shares_storage_with(&over));
    }

    #[test]
    fn equality_and_hash_follow_content() {
        use std::collections::hash_map::DefaultHasher;
        let owned = Blob::from(vec![1, 2, 3]);
        let image = Blob::from(vec![9, 1, 2, 3, 9]);
        let view = image.slice(1, 3).unwrap();
        assert_eq!(owned, view);
        let hash = |b: &Blob| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&owned), hash(&view));
        assert_ne!(owned, image);
        assert_eq!(format!("{owned:?}"), "Blob([1, 2, 3])");
        let large = Blob::zeroed(2000);
        assert_eq!(large.slice(5, 1500), Blob::zeroed(2000).slice(0, 1500));
    }

    #[test]
    fn shared_decode_yields_views_of_large_images() {
        let value = (String::from("ui"), Blob::from(vec![7u8; 3000]));
        let image = Blob::from(to_bytes(&value));
        let back: (String, Blob) = from_blob(&image).unwrap();
        assert_eq!(back, value);
        assert!(back.1.shares_storage_with(&image));
        let copied: (String, Blob) = from_bytes(&image).unwrap();
        assert_eq!(copied, value);
        assert!(!copied.1.shares_storage_with(&image));
    }

    #[test]
    fn shared_decode_of_small_images_copies() {
        let value = (String::from("ui"), Blob::from(vec![7u8; 300]));
        let image = Blob::from(to_bytes(&value));
        let back: (String, Blob) = from_blob(&image).unwrap();
        assert_eq!(back, value);
        assert!(!back.1.shares_storage_with(&image));
        assert_eq!(back.1.retained_len(), 300);
    }
}
