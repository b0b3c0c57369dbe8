//! The little-endian binary record codec and the FNV-1a hash shared by the
//! workspace's binary formats: checkpoint files, market-ledger record
//! payloads and the power-tree fingerprint.
//!
//! Integers are written little-endian at fixed width, `usize` as `u64`,
//! floats as their raw IEEE bits (so every value round-trips
//! bit-identically), booleans and option tags as one byte that must be 0
//! or 1, and byte strings with a `u64` length prefix. [`Enc::raw`] writes
//! bytes without a prefix. Decoding is total: every read returns a
//! [`DecodeError`] instead of panicking, and a count read bounds any
//! allocation by the bytes left.

/// FNV-1a, 64-bit: the checksum and fingerprint hash of the binary
/// formats.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a record failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before the record does.
    Truncated,
    /// The input decodes to an invalid value.
    Malformed(
        /// What was invalid.
        &'static str,
    ),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record is truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends fields to a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder with room for `capacity` bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes as they are, with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.raw(&v.to_le_bytes());
    }

    /// A `usize`, as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f64`, as its raw bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A boolean, as 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A string: its byte length, then its UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.raw(v.as_bytes());
    }

    /// An optional `f64`: tag 0, or tag 1 and the value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    /// A slice of `f64`: its length, then each value.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Reads fields back, in the order [`Enc`] wrote them.
///
/// Every read fails with [`DecodeError::Truncated`] when fewer bytes are
/// left than it needs, and with [`DecodeError::Malformed`] when the bytes
/// do not encode a valid value.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// A `usize` written as a `u64`; malformed if it overflows `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed("count overflow"))
    }

    /// A length or element count that is about to drive an allocation:
    /// truncated if it exceeds the bytes left, so a corrupt count cannot
    /// trigger a huge allocation.
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// An `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A boolean; malformed on a tag other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("invalid bool tag")),
        }
    }

    /// A length-prefixed string; malformed on invalid UTF-8.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| DecodeError::Malformed("invalid UTF-8 string"))
    }

    /// An optional `f64`; malformed on a tag other than 0 or 1.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(DecodeError::Malformed("invalid option tag")),
        }
    }

    /// A length-prefixed slice of `f64`.
    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Ends the decode; malformed if any bytes are left over.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_field_round_trips() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX);
        e.u128(1 << 100);
        e.usize(12);
        e.f64(-0.0);
        e.bool(true);
        e.str("watts ✓");
        e.opt_f64(Some(f64::NAN));
        e.opt_f64(None);
        e.f64s(&[1.5, 2.5]);
        e.raw(&[9, 9]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Ok(7));
        assert_eq!(d.u32(), Ok(0xdead_beef));
        assert_eq!(d.u64(), Ok(u64::MAX));
        assert_eq!(d.u128(), Ok(1 << 100));
        assert_eq!(d.usize(), Ok(12));
        assert_eq!(d.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(d.bool(), Ok(true));
        assert_eq!(d.string().as_deref(), Ok("watts ✓"));
        assert!(d.opt_f64().unwrap().unwrap().is_nan());
        assert_eq!(d.opt_f64(), Ok(None));
        assert_eq!(d.f64s(), Ok(vec![1.5, 2.5]));
        assert_eq!(d.array(), Ok([9, 9]));
        assert_eq!(d.finish(), Ok(()));
    }

    #[test]
    fn bad_input_is_rejected_without_panicking() {
        assert_eq!(Dec::new(&[1, 2, 3]).u64(), Err(DecodeError::Truncated));
        assert_eq!(
            Dec::new(&[2]).bool(),
            Err(DecodeError::Malformed("invalid bool tag"))
        );
        assert_eq!(
            Dec::new(&[2]).opt_f64(),
            Err(DecodeError::Malformed("invalid option tag"))
        );
        // A huge length prefix is refused before it can allocate.
        let mut e = Enc::default();
        e.u64(u64::MAX >> 1);
        assert_eq!(Dec::new(e.as_bytes()).string(), Err(DecodeError::Truncated));
        let mut d = Dec::new(&[0, 1]);
        assert_eq!(d.u8(), Ok(0));
        assert_eq!(d.finish(), Err(DecodeError::Malformed("trailing bytes")));
    }
}
