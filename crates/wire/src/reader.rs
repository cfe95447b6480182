//! A borrowing cursor over an encoded byte slice.

use crate::blob::Blob;
use crate::error::WireError;

/// Maximum length any prefix may declare; guards against hostile or corrupt
/// buffers allocating gigabytes.
pub const MAX_DECLARED_LEN: u64 = 256 * 1024 * 1024;

/// Cursor used by [`Wire::decode`](crate::Wire::decode) implementations.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The blob whose bytes `buf` is, when decoding from a shared input:
    /// blob fields then decode as views into it instead of copies.
    source: Option<&'a Blob>,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice; blobs decoded from it are copies.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            source: None,
        }
    }

    /// Wraps a shared blob; blobs decoded from it are views into it.
    pub fn shared(blob: &'a Blob) -> Self {
        Reader {
            buf: blob.as_slice(),
            pos: 0,
            source: Some(blob),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let out = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(WireError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            })?;
        self.pos += n;
        Ok(out)
    }

    /// Consumes `n` bytes as a blob: a view into the input when it is a
    /// shared blob ([`Reader::shared`]), otherwise a copy.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] when fewer than `n` bytes remain.
    pub fn take_blob(&mut self, n: usize) -> Result<Blob, WireError> {
        let offset = self.pos;
        let bytes = self.take(n)?;
        Ok(self
            .source
            .and_then(|source| source.slice(offset, n))
            .unwrap_or_else(|| Blob::from(bytes)))
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] when the buffer is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        match self.take(1)? {
            [byte] => Ok(*byte),
            _ => Err(WireError::UnexpectedEnd {
                needed: 1,
                remaining: 0,
            }),
        }
    }

    /// Decodes a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] on truncation and
    /// [`WireError::LengthOverflow`] on more than ten continuation bytes.
    pub fn take_varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift >= 64 {
                return Err(WireError::LengthOverflow { declared: u64::MAX });
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Decodes a length prefix, checking the sanity cap.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOverflow`] when the declared length exceeds
    /// [`MAX_DECLARED_LEN`], plus varint errors.
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let declared = self.take_varint()?;
        if declared > MAX_DECLARED_LEN {
            return Err(WireError::LengthOverflow { declared });
        }
        Ok(declared as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_advances_and_errors_at_end() {
        let data = [1u8, 2, 3];
        let mut r = Reader::new(&data);
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        assert_eq!(r.remaining(), 1);
        assert!(matches!(r.take(2), Err(WireError::UnexpectedEnd { .. })));
        assert_eq!(r.take_u8().unwrap(), 3);
        assert!(r.is_exhausted());
    }

    #[test]
    fn varint_roundtrip_examples() {
        // 300 = 0b1010_1100 0b0000_0010
        let data = [0xAC, 0x02];
        let mut r = Reader::new(&data);
        assert_eq!(r.take_varint().unwrap(), 300);
    }

    #[test]
    fn varint_overflow_detected() {
        let data = [0xFF; 11];
        let mut r = Reader::new(&data);
        assert!(matches!(
            r.take_varint(),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn length_cap_enforced() {
        // Encode MAX_DECLARED_LEN + 1 as varint by hand.
        let mut buf = Vec::new();
        let mut v = MAX_DECLARED_LEN + 1;
        while v >= 0x80 {
            buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.take_len(),
            Err(WireError::LengthOverflow { .. })
        ));
    }
}
