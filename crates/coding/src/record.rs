//! Little-endian record codec: the byte-level writer and checked reader
//! behind the gateway journal's records and the ingest wire protocol's
//! messages.
//!
//! Integers travel little-endian, every `f64` as its exact IEEE bit
//! pattern, and every length as a `u32` prefix. Each encode site reads
//! back through the [`ByteReader`] call of the same name, which checks
//! that the bytes exist before taking them and refuses a length prefix
//! the remaining input cannot cover, so adversarial input can neither
//! panic a reader nor make it allocate more than the input holds.

/// Bytes that do not decode as the record they were read as: a short
/// field, an unknown tag, a length past the input, or trailing bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed;

/// Little-endian append-only writer; [`ByteReader`] reads each field back
/// with the method of the same name.
///
/// # Example
///
/// ```
/// use hybridcs_coding::{ByteReader, ByteWriter};
///
/// let mut w = ByteWriter::new();
/// w.u16(7);
/// w.opt_u32(Some(9));
/// w.bytes(b"ecg");
/// let bytes = w.finish();
///
/// let mut r = ByteReader::new(&bytes);
/// assert_eq!(r.u16(), Ok(7));
/// assert_eq!(r.opt_u32(), Ok(Some(9)));
/// assert_eq!(r.bytes(), Ok(&b"ecg"[..]));
/// assert_eq!(r.done(), Ok(()));
/// ```
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u32` length prefix.
    fn len(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("record lengths fit u32"));
    }

    /// A length prefix, then the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// A length prefix, then every value as [`f64`](ByteWriter::f64).
    pub fn f64s(&mut self, v: &[f64]) {
        self.seq(v.iter(), |w, x| w.f64(*x));
    }

    /// A length prefix, then every item as `put` writes it.
    pub fn seq<'a, T: 'a>(
        &mut self,
        items: impl ExactSizeIterator<Item = &'a T>,
        mut put: impl FnMut(&mut Self, &T),
    ) {
        self.len(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// `0` for `None`; `1`, then the value as `put` writes it.
    pub fn opt<T>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                put(self, x);
            }
        }
    }

    /// An optional `u32`, as [`opt`](ByteWriter::opt) writes it.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        self.opt(v.as_ref(), |w, x| w.u32(*x));
    }

    /// The bytes written so far.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian reader over a borrowed record: every read
/// verifies its bytes exist, and every length prefix is checked against
/// the remaining input before anything is allocated. A read whose bytes
/// are not there fails with [`Malformed`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        let end = self.pos.checked_add(n).ok_or(Malformed)?;
        let out = self.data.get(self.pos..end).ok_or(Malformed)?;
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Malformed> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Malformed> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Malformed> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, Malformed> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix, then that many bytes, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], Malformed> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A length prefix, then that many [`f64`](ByteReader::f64)s.
    pub fn f64s(&mut self) -> Result<Vec<f64>, Malformed> {
        self.seq(8, Self::f64)
    }

    /// A length prefix, then that many items as `get` reads them. Every
    /// item takes at least `min_bytes`, so a length the remaining input
    /// cannot cover is refused before anything is allocated.
    pub fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, Malformed>,
    ) -> Result<Vec<T>, Malformed> {
        let len = self.u32()? as usize;
        if len.checked_mul(min_bytes).ok_or(Malformed)? > self.data.len() - self.pos {
            return Err(Malformed);
        }
        (0..len).map(|_| get(self)).collect()
    }

    /// `None` for a `0` tag; for `1`, the value as `get` reads it; any
    /// other tag is [`Malformed`].
    pub fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, Malformed>,
    ) -> Result<Option<T>, Malformed> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            _ => Err(Malformed),
        }
    }

    /// An optional `u32`, as [`opt`](ByteReader::opt) reads it.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, Malformed> {
        self.opt(Self::u32)
    }

    /// [`Malformed`] unless the whole input was read, so a decoded record
    /// is exactly its bytes.
    pub fn done(&self) -> Result<(), Malformed> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(Malformed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_round_trips_little_endian() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u16(0x0102);
        w.u32(0x0304_0506);
        w.u64(0x0708_090A_0B0C_0D0E);
        w.f64(-0.0);
        w.bytes(&[9, 8]);
        w.f64s(&[1.5]);
        w.seq([3u32, 4].iter(), |w, x| w.u32(*x));
        w.opt::<u8>(None, |w, x| w.u8(*x));
        w.opt_u32(Some(5));
        let bytes = w.finish();
        assert_eq!(&bytes[..3], &[0xAB, 0x02, 0x01]);
        assert_eq!(&bytes[3..7], &[0x06, 0x05, 0x04, 0x03]);

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.bytes(), Ok(&[9u8, 8][..]));
        assert_eq!(r.f64s(), Ok(vec![1.5]));
        assert_eq!(r.seq(4, ByteReader::u32), Ok(vec![3, 4]));
        assert_eq!(r.opt(ByteReader::u8), Ok(None));
        assert_eq!(r.opt_u32(), Ok(Some(5)));
        assert_eq!(r.done(), Ok(()));
    }

    #[test]
    fn short_input_bad_tags_and_lying_lengths_are_malformed() {
        assert_eq!(ByteReader::new(&[1, 2, 3]).u32(), Err(Malformed));
        assert_eq!(ByteReader::new(&[2]).opt_u32(), Err(Malformed));
        // A length prefix of u32::MAX over a 4-byte tail: refused before
        // anything is allocated.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        w.u32(0);
        let bytes = w.finish();
        assert_eq!(ByteReader::new(&bytes).f64s(), Err(Malformed));
        assert_eq!(ByteReader::new(&bytes).bytes(), Err(Malformed));
        let mut r = ByteReader::new(&bytes);
        r.u32().unwrap();
        assert_eq!(r.done(), Err(Malformed));
    }
}
