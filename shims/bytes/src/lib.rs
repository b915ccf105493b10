//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset used by the binary log codec: [`BytesMut`] as a
//! growable write buffer with the little-endian `put_*` family, and
//! [`Bytes`] as a read cursor with the `get_*`/`copy_to_*` family. The
//! real crate's zero-copy reference counting is not reproduced — `slice`
//! and `copy_to_bytes` copy — but the API shapes match `bytes` 1.x so the
//! real crate can be swapped back in without touching call sites.

/// Read access to a byte cursor (mirrors `bytes::Buf`).
pub trait Buf {
    /// Bytes left between the cursor and the end.
    fn remaining(&self) -> usize;

    /// Borrows the unread bytes.
    fn chunk(&self) -> &[u8];

    /// Moves the cursor forward by `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > self.remaining()`.
    fn advance(&mut self, cnt: usize);

    /// `true` while any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes out, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Copies the next `len` bytes into an owned [`Bytes`], advancing.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes remain.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::from(self.chunk()[..len].to_vec());
        self.advance(len);
        out
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 bytes remain.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes remain.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes remain.
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }
}

/// Write access to a growable buffer (mirrors `bytes::BufMut`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// An immutable byte buffer with a read cursor (mirrors `bytes::Bytes`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice (copied here, borrowed in the real crate).
    #[must_use]
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: data.to_vec(),
            pos: 0,
        }
    }

    /// Unread length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` if no bytes remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-range of the unread bytes as a new buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`Bytes::len`].
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes::from(self.data[self.pos..][range].to_vec())
    }

    /// The unread bytes as an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.data[self.pos..].to_vec()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

/// The unread bytes as a vector: the buffer itself, with any read prefix
/// removed (mirrors `bytes`' `From<Bytes> for Vec<u8>`).
impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        let mut data = bytes.data;
        data.drain(..bytes.pos);
        data
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance past end of buffer");
        self.pos += cnt;
    }
}

/// A growable write buffer (mirrors `bytes::BytesMut`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer with `capacity` bytes pre-allocated.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Written length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, Bytes, BytesMut};

    #[test]
    fn round_trip_all_widths() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 1);
        w.put_i64_le(-42);
        w.put_slice(b"tail");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_i64_le(), -42);
        assert_eq!(r.copy_to_bytes(4).to_vec(), b"tail");
        assert!(!r.has_remaining());
    }

    #[test]
    fn slice_and_len_track_the_cursor() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.slice(1..4).to_vec(), vec![2, 3, 4]);
        b.advance(2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.slice(0..2).to_vec(), vec![3, 4]);
        assert_eq!(b.chunk(), &[3, 4, 5]);
    }

    #[test]
    fn copy_to_slice_advances() {
        let mut b = Bytes::from_static(b"abcdef");
        let mut dst = [0u8; 3];
        b.copy_to_slice(&mut dst);
        assert_eq!(&dst, b"abc");
        assert_eq!(b.remaining(), 3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut b = Bytes::new();
        let _ = b.get_u32_le();
    }
}
