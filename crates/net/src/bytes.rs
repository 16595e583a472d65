//! The one little-endian byte codec every wire shape is built from.
//!
//! Wire frames ([`crate::frame`]), `AXTR` trace records (`axml-obs`)
//! and engine messages (`axml-core`) all lay out integers as fixed-width
//! little-endian and strings as a `u32` byte length plus UTF-8. The
//! write half is [`PutBytes`] on `Vec<u8>`, the read half a
//! bounds-checked [`Cursor`]; nothing else in the workspace spells
//! `to_le_bytes`/`from_le_bytes` (a `scripts/tier1.sh` grep holds that).

use std::fmt;

/// Appending little-endian fields to a byte buffer.
pub trait PutBytes {
    /// One byte.
    fn put_u8(&mut self, v: u8);
    /// 4 bytes LE.
    fn put_u32(&mut self, v: u32);
    /// 8 bytes LE.
    fn put_u64(&mut self, v: u64);
    /// The IEEE-754 bits, 8 bytes LE — bit-exact, NaN payloads included.
    fn put_f64(&mut self, v: f64);
    /// A `usize` length, count or index as a `u32` prefix.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` instead of truncating into a prefix every
    /// reader would misparse; producers of unbounded data check their
    /// own cap first (see [`crate::frame::try_encode_frame`]).
    fn put_len(&mut self, n: usize);
    /// `u32` byte length + UTF-8 bytes.
    fn put_str(&mut self, s: &str);
    /// Overwrite the 4 bytes at `at` (a placeholder written earlier with
    /// `put_u32(0)`) with the `u32` length `n`; panics like
    /// [`PutBytes::put_len`].
    fn patch_len(&mut self, at: usize, n: usize);
}

#[inline]
fn len_prefix(n: usize) -> [u8; 4] {
    u32::try_from(n)
        .expect("length does not fit a u32 prefix")
        .to_le_bytes()
}

impl PutBytes for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    #[inline]
    fn put_len(&mut self, n: usize) {
        self.extend_from_slice(&len_prefix(n));
    }

    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.extend_from_slice(s.as_bytes());
    }

    #[inline]
    fn patch_len(&mut self, at: usize, n: usize) {
        self[at..at + 4].copy_from_slice(&len_prefix(n));
    }
}

/// Why a [`Cursor`] read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BytesError {
    /// A field needed `short_by` more bytes than the input holds.
    Short {
        /// Missing byte count.
        short_by: usize,
    },
    /// [`Cursor::finish`] found bytes after the last declared field.
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
    /// A string field is not valid UTF-8.
    Utf8,
}

impl fmt::Display for BytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BytesError::Short { short_by } => write!(f, "input short by {short_by} bytes"),
            BytesError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            BytesError::Utf8 => f.write_str("invalid UTF-8 in string"),
        }
    }
}

impl std::error::Error for BytesError {}

/// A bounds-checked reader over one encoded body. Every read either
/// returns the field or a typed [`BytesError`]; length prefixes are
/// widened to `usize` before they are compared, never narrowed.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Start reading at the first byte of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BytesError> {
        if n > self.rest.len() {
            return Err(BytesError::Short {
                short_by: n - self.rest.len(),
            });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], BytesError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, BytesError> {
        Ok(self.array::<1>()?[0])
    }

    /// 4 bytes LE.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, BytesError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// 8 bytes LE.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, BytesError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// 8 bytes LE, reinterpreted as IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, BytesError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `u32` byte length + UTF-8 bytes, borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, BytesError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| BytesError::Utf8)
    }

    /// Succeeds only when every byte has been read.
    #[inline]
    pub fn finish(self) -> Result<(), BytesError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(BytesError::Trailing { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_in_order() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u32(0xDEAD_BEEF);
        out.put_u64(u64::MAX - 1);
        out.put_f64(f64::NAN);
        out.put_str("中 🦀");
        out.put_len(3);
        let mut c = Cursor::new(&out);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(c.u64(), Ok(u64::MAX - 1));
        assert_eq!(c.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(c.str(), Ok("中 🦀"));
        assert_eq!(c.remaining(), 4);
        assert_eq!(c.u32(), Ok(3));
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn layout_is_little_endian_and_length_prefixed() {
        let mut out = Vec::new();
        out.put_u32(1);
        out.put_str("ab");
        assert_eq!(out, [1, 0, 0, 0, 2, 0, 0, 0, b'a', b'b']);
        out.patch_len(0, 0x0102);
        assert_eq!(out[..4], [2, 1, 0, 0]);
    }

    #[test]
    fn short_trailing_and_utf8_are_typed() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(c.u32(), Err(BytesError::Short { short_by: 1 }));
        // A failed read consumes nothing.
        assert_eq!(c.remaining(), 3);
        assert_eq!(c.take(2), Ok(&[1u8, 2][..]));
        assert_eq!(c.finish(), Err(BytesError::Trailing { extra: 1 }));

        // A length prefix far past the input is compared as usize.
        let mut huge = Vec::new();
        huge.put_u32(u32::MAX);
        huge.put_u8(b'x');
        assert_eq!(
            Cursor::new(&huge).str(),
            Err(BytesError::Short {
                short_by: u32::MAX as usize - 1
            })
        );

        let mut bad = Vec::new();
        bad.put_len(2);
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Cursor::new(&bad).str(), Err(BytesError::Utf8));
        assert!(BytesError::Utf8.to_string().contains("UTF-8"));
        assert!(BytesError::Trailing { extra: 1 }
            .to_string()
            .contains("trailing"));
    }
}
