//! Checksummed framing for payloads that travel between hosts.

use bytes::{BufMut, BytesMut};

use crate::error::WireError;
use crate::reader::Reader;
use crate::wire::{to_bytes, Wire};

const MAGIC: u16 = 0x4D44; // "MD"

/// FNV-1a, the classic non-cryptographic checksum — enough to catch the
/// simulated corruption faults injected by the test suite.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// A framed, checksummed payload: what actually crosses a link.
///
/// Frame layout: magic (2 bytes LE) · payload length varint · payload ·
/// FNV-1a checksum (8 bytes LE).
///
/// # Examples
///
/// ```
/// use mdagent_wire::Envelope;
///
/// let env = Envelope::seal(&("hello".to_string(), 3u32));
/// let inner: (String, u32) = env.open()?;
/// assert_eq!(inner.1, 3);
/// # Ok::<(), mdagent_wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    payload: Vec<u8>,
}

impl Envelope {
    /// Encodes and seals a value.
    pub fn seal<T: Wire>(value: &T) -> Envelope {
        Envelope {
            payload: to_bytes(value),
        }
    }

    /// Wraps already-encoded bytes.
    pub fn from_payload(payload: Vec<u8>) -> Envelope {
        Envelope { payload }
    }

    /// Decodes the payload back into a value.
    ///
    /// # Errors
    ///
    /// Propagates decoding failures from the payload.
    pub fn open<T: Wire>(&self) -> Result<T, WireError> {
        crate::wire::from_bytes(&self.payload)
    }

    /// Raw payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Serializes the whole frame (with magic and checksum).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.payload.len() + 16);
        buf.put_u16_le(MAGIC);
        crate::wire::put_varint(&mut buf, self.payload.len() as u64);
        buf.put_slice(&self.payload);
        buf.put_u64_le(fnv1a(&self.payload));
        buf.freeze()
    }

    /// Parses and verifies a frame.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidTag`] on a bad magic, [`WireError::ChecksumMismatch`]
    /// on corruption, and truncation errors otherwise.
    pub fn from_frame(frame: &[u8]) -> Result<Envelope, WireError> {
        let mut reader = Reader::new(frame);
        let magic_bytes = reader.take(2)?;
        let magic = u16::from_le_bytes([magic_bytes[0], magic_bytes[1]]);
        if magic != MAGIC {
            return Err(WireError::InvalidTag {
                tag: u32::from(magic),
                type_name: "Envelope",
            });
        }
        let len = reader.take_len()?;
        let payload = reader.take(len)?.to_vec();
        let checksum_bytes = reader.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(checksum_bytes);
        if u64::from_le_bytes(arr) != fnv1a(&payload) {
            return Err(WireError::ChecksumMismatch);
        }
        Ok(Envelope { payload })
    }

    /// Total on-the-wire frame size in bytes; migration costs use this.
    pub fn frame_len(&self) -> usize {
        2 + crate::wire::varint_len(self.payload.len() as u64) + self.payload.len() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let env = Envelope::seal(&vec![1u32, 2, 3]);
        let frame = env.to_frame();
        assert_eq!(frame.len(), env.frame_len());
        let back = Envelope::from_frame(&frame).unwrap();
        assert_eq!(back, env);
        let items: Vec<u32> = back.open().unwrap();
        assert_eq!(items, [1, 2, 3]);
    }

    #[test]
    fn corruption_is_detected() {
        let env = Envelope::seal(&String::from("payload"));
        let mut frame = env.to_frame();
        let mid = frame.len() / 2;
        frame[mid] ^= 0xFF;
        let res = Envelope::from_frame(&frame);
        assert!(matches!(
            res,
            Err(WireError::ChecksumMismatch)
                | Err(WireError::InvalidUtf8)
                | Err(WireError::UnexpectedEnd { .. })
                | Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn checksum_flip_detected() {
        let env = Envelope::seal(&42u64);
        let mut frame = env.to_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(
            Envelope::from_frame(&frame),
            Err(WireError::ChecksumMismatch)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let env = Envelope::seal(&1u8);
        let mut frame = env.to_frame();
        frame[0] = 0;
        assert!(matches!(
            Envelope::from_frame(&frame),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
