//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build environment has no access to crates.io, so this workspace crate
//! provides exactly the API surface the repo uses: [`Bytes`] (a cheaply
//! cloneable, sliceable read cursor over immutable bytes), [`BytesMut`] (an
//! append-only build buffer), and the [`Buf`]/[`BufMut`] accessor traits with
//! the little-endian fixed-width getters/putters the wire codec needs.
//!
//! Semantics match the real crate for this subset: `Bytes` getters advance
//! the cursor, `split_to`/`slice` share the underlying allocation,
//! `BytesMut::freeze` converts without copying, and [`Bytes::try_into_mut`]
//! reclaims the allocation when this handle is the last owner (the hook the
//! wire codec's buffer pool uses to recycle delivered frames).

use std::ops::{Deref, Range};
use std::sync::Arc;

/// Read-side accessors. Getters consume from the front of the buffer and
/// panic when insufficient bytes remain (callers check [`Buf::remaining`]).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skip the next `n` bytes (panics when fewer remain).
    fn advance(&mut self, n: usize);
    /// Consume one byte.
    fn get_u8(&mut self) -> u8;
    /// Consume a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Consume a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Consume a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
}

/// Write-side accessors: append fixed-width little-endian values.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Append a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64);
    /// Append raw bytes.
    fn put_slice(&mut self, s: &[u8]);
}

/// An immutable byte buffer: a view (`start..end`) into shared storage.
/// Cloning and slicing are O(1) and share the allocation.
#[derive(Clone, Debug, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Wrap a static byte slice.
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::from(s.to_vec())
    }

    /// A sub-view of this buffer; `range` is relative to the current view.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.end - self.start,
            "slice out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Split off and return the first `n` bytes, advancing `self` past them.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.end - self.start, "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// Reclaim the allocation as a [`BytesMut`] when this handle is the last
    /// owner; returns `self` unchanged otherwise. Mirrors the real crate's
    /// `try_into_mut` (bytes >= 1.7) and is what lets a buffer pool recycle a
    /// frame after its final delivery without copying.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match Arc::try_unwrap(self.data) {
            Ok(v) => Ok(BytesMut { data: v }),
            Err(data) => Err(Bytes {
                data,
                start: self.start,
                end: self.end,
            }),
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.end - self.start, "buffer underflow");
        let s = &self.data[self.start..self.start + n];
        self.start += n;
        s
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for Bytes {}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.end - self.start
    }
    fn advance(&mut self, n: usize) {
        self.take(n);
    }
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }
}

/// An append-only byte builder; [`BytesMut::freeze`] converts to [`Bytes`].
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `n` bytes of capacity pre-reserved.
    pub fn with_capacity(n: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(n),
        }
    }

    /// Drop the contents, keeping the allocation (for buffer reuse).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Bytes of backing capacity currently reserved.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64_le(&mut self, v: i64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_u16_le(300);
        b.put_u32_le(70_000);
        b.put_u64_le(1 << 40);
        b.put_i64_le(-9);
        b.put_slice(b"xy");
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 8 + 2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 300);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_u64_le(), 1 << 40);
        assert_eq!(r.get_u64_le() as i64, -9);
        assert_eq!(&*r.split_to(2), b"xy");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn advance_skips_without_splitting() {
        let mut b = Bytes::from(vec![0, 1, 2, 3]);
        b.advance(3);
        assert_eq!(&*b, &[3]);
        assert!(b.try_into_mut().is_ok(), "no second handle was made");
    }

    #[test]
    fn slice_and_split_share_view() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&*s, &[2, 3, 4]);
        let mut t = s.clone();
        let head = t.split_to(1);
        assert_eq!(&*head, &[2]);
        assert_eq!(&*t, &[3, 4]);
        assert_eq!(s.len(), 3, "original view untouched");
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from_static(&[1]);
        let _ = b.get_u32_le();
    }

    #[test]
    fn try_into_mut_reclaims_sole_owner() {
        let b = Bytes::from(vec![1, 2, 3]);
        let mut m = b.try_into_mut().expect("sole owner reclaims");
        assert_eq!(&*m, &[1, 2, 3]);
        m.clear();
        assert_eq!(m.len(), 0);
        assert!(m.capacity() >= 3, "allocation retained");
    }

    #[test]
    fn try_into_mut_rejects_shared_owner() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        let back = b.try_into_mut().expect_err("shared handle stays Bytes");
        assert_eq!(back, c);
    }
}
