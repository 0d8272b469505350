//! The workspace's one binary codec, shared by the `SPT1` table file
//! ([`crate::store`]) and the `dist` crate's wire frames.
//!
//! * [`fnv1a`] is the FNV-1a 64 hash behind every checksum and content
//!   fingerprint: stable across platforms and releases, unlike
//!   `std::hash`.
//! * [`Writer`] appends little-endian integers, `f64` values as their
//!   IEEE-754 bit patterns ([`f64::to_bits`]), and length-prefixed
//!   strings and byte runs. [`Writer::seal`] appends the FNV-1a 64 of
//!   everything written.
//! * [`Reader`] is its bounds-checked inverse. Every take is checked
//!   against the bytes left, and so is every count: `count` items of at
//!   least `min_bytes` each must fit in what is left before the count is
//!   returned, so a hostile count never sizes an allocation.
//!   [`Reader::finish`] reports trailing bytes, and [`unseal`] checks a
//!   [`Writer::seal`]ed checksum.
//!
//! The formats' own rules (magic, version, tags, finite values, index
//! ranges) stay with the formats; this module only moves bytes. Its
//! [`DecodeError`] converts into `TableError::Format` and into the `dist`
//! crate's `DistError::Protocol`.

use std::fmt;

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Appends little-endian fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty buffer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends `bytes` as they are, with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bit pattern, so a read returns it bitwise.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u32` byte length, then the string's UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    /// Appends a `u64` byte length, then the bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.raw(b);
    }

    /// The bytes written, unsealed.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written, followed by their [`fnv1a`] as a `u64`.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Why a [`Reader`] or [`unseal`] rejected its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A read of `wanted` bytes at offset `at` ran past the buffer's `len`.
    Truncated {
        wanted: usize,
        at: usize,
        len: usize,
    },
    /// A `count` of `what` cannot fit in the `left` bytes after it.
    Count {
        what: &'static str,
        count: u64,
        left: usize,
    },
    /// The string at offset `at` is not UTF-8.
    NotUtf8 { at: usize },
    /// Bytes were left after the last field.
    Trailing(usize),
    /// The sealed checksum (`stated`) is not the one `computed` over the
    /// bytes before it.
    Checksum { stated: u64, computed: u64 },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { wanted, at, len } => {
                write!(
                    f,
                    "truncated: wanted {wanted} bytes at offset {at} of {len}"
                )
            }
            DecodeError::Count { what, count, left } => write!(
                f,
                "truncated {what}: {count} items cannot fit in the {left} bytes left"
            ),
            DecodeError::NotUtf8 { at } => write!(f, "string at offset {at} is not UTF-8"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after the last field"),
            DecodeError::Checksum { stated, computed } => write!(
                f,
                "checksum mismatch: stated {stated:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Splits a [`Writer::seal`]ed buffer into the bytes before its checksum.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when `sealed` is shorter than a checksum,
/// [`DecodeError::Checksum`] when the checksum does not match the bytes.
pub fn unseal(sealed: &[u8]) -> Result<&[u8], DecodeError> {
    let Some(cut) = sealed.len().checked_sub(8) else {
        return Err(DecodeError::Truncated {
            wanted: 8,
            at: 0,
            len: sealed.len(),
        });
    };
    let (payload, tail) = sealed.split_at(cut);
    let stated = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let computed = fnv1a(payload);
    if stated != computed {
        return Err(DecodeError::Checksum { stated, computed });
    }
    Ok(payload)
}

/// A bounds-checked little-endian reader over a byte buffer, so no input
/// can make it panic or over-allocate. Every read fails with
/// [`DecodeError::Truncated`] when the buffer runs out first; a count
/// also fails with [`DecodeError::Count`], a string with
/// [`DecodeError::NotUtf8`], and [`Reader::finish`] with
/// [`DecodeError::Trailing`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::Truncated {
                wanted: n,
                at: self.pos,
                len: self.buf.len(),
            })?;
        let piece = &self.buf[self.pos..end];
        self.pos = end;
        Ok(piece)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its bit pattern, bitwise as written (NaN included:
    /// which values are valid is the format's rule).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u32()? as usize;
        let at = self.pos;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::NotUtf8 { at })
    }

    /// A byte run written by [`Writer::bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u64()?;
        self.take(usize::try_from(n).unwrap_or(usize::MAX))
    }

    /// A `u32` count of `what`, items of at least `min_bytes` (> 0) each,
    /// returned only once that many fit in the bytes left.
    pub fn count_u32(
        &mut self,
        min_bytes: usize,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let count = self.u32()?;
        self.fits(count.into(), min_bytes, what)
    }

    /// A `u64` count, checked as [`Reader::count_u32`] checks its count.
    pub fn count_u64(
        &mut self,
        min_bytes: usize,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let count = self.u64()?;
        self.fits(count, min_bytes, what)
    }

    fn fits(&self, count: u64, min_bytes: usize, what: &'static str) -> Result<usize, DecodeError> {
        let left = self.buf.len() - self.pos;
        if count > (left / min_bytes) as u64 {
            return Err(DecodeError::Count { what, count, left });
        }
        Ok(count as usize)
    }

    /// Ends the read, failing if bytes are left.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_field_round_trips() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.str("ünïcode");
        w.bytes(&[1, 2, 3]);
        w.u32(2);
        w.raw(&[4, 5]);
        let sealed = w.seal();
        let mut r = Reader::new(unseal(&sealed).unwrap());
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str(), Ok("ünïcode"));
        assert_eq!(r.bytes(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.count_u32(1, "items"), Ok(2));
        assert_eq!(r.take(2), Ok(&[4u8, 5][..]));
        r.finish().unwrap();
    }

    #[test]
    fn takes_counts_and_trailing_bytes_are_checked() {
        let mut r = Reader::new(&[1, 0, 0, 0, 9]);
        assert_eq!(
            r.count_u32(2, "pairs"),
            Err(DecodeError::Count {
                what: "pairs",
                count: 1,
                left: 1
            })
        );
        let err = r.u32().unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                wanted: 4,
                at: 4,
                len: 5
            }
        );
        assert!(err.to_string().contains("truncated"));
        assert_eq!(r.finish(), Err(DecodeError::Trailing(1)));

        let mut huge = Writer::new();
        huge.u64(u64::MAX);
        let huge = huge.into_bytes();
        assert!(Reader::new(&huge).bytes().is_err());
        assert!(Reader::new(&huge).count_u64(1, "items").is_err());
        assert!(Reader::new(&[1, 0, 0, 0, 0xFF]).str().is_err());
    }

    #[test]
    fn unseal_rejects_short_and_altered_buffers() {
        let mut w = Writer::new();
        w.raw(b"payload");
        let mut sealed = w.seal();
        assert_eq!(unseal(&sealed), Ok(&b"payload"[..]));
        assert!(matches!(
            unseal(&sealed[..7]),
            Err(DecodeError::Truncated { .. })
        ));
        sealed[0] ^= 1;
        let err = unseal(&sealed).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }
}
