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
//!
//! ## Inlining
//!
//! The codec calls an accessor once per tag and once per word, from another
//! crate, in a build without LTO — so every accessor of [`Buf`], [`BufMut`]
//! and `Deref` here is `#[inline]`, as in the real crate; without the
//! attribute each was a call (≈ 8 % of the `stack-churn` benchmark's
//! samples, and visible in `object-storm`). Measured on its own, under the
//! per-frame segment form the state codec then wrote, the attribute made
//! `stack-churn` 4 % *slower* (4/4 paired runs) while helping
//! `object-storm` 5 % (4/4); it pays together with the three-array form
//! that reads and writes through it, and the two landed as one change.
//!
//! ## Cell reuse
//!
//! A `Bytes` shares its storage through a reference-counted cell, and that
//! cell is a heap allocation of its own. A frame that cycles through a pool
//! — checked out, filled, frozen, delivered, reclaimed — would mint and free
//! one cell per trip if `freeze` built it and `try_into_mut` tore it down.
//! Instead the cell travels with the buffer: `try_into_mut` moves the bytes
//! out and leaves the (now empty, still uniquely owned) cell inside the
//! `BytesMut`, and the next `freeze` moves the bytes back into it. A pooled
//! frame therefore costs no allocation at all; only a `BytesMut` that never
//! was a `Bytes` mints a cell, once, at its first `freeze`.

use std::fmt;
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
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

/// Prints the viewed bytes only, escaped as a byte string (`b"..."`), as
/// the real crate does: never the rest of the shared storage.
impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("b\"")?;
        for &b in self.iter() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        f.write_str("\"")
    }
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
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        match Arc::get_mut(&mut self.data) {
            // Sole owner: move the bytes out and keep the cell for the
            // next `freeze` (see the module docs).
            Some(v) => Ok(BytesMut {
                data: std::mem::take(v),
                cell: Some(self.data),
            }),
            None => Err(self),
        }
    }

    #[inline]
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
    #[inline]
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
    #[inline]
    fn remaining(&self) -> usize {
        self.end - self.start
    }
    #[inline]
    fn advance(&mut self, n: usize) {
        self.take(n);
    }
    #[inline]
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }
}

/// A plain slice reads as a cursor too: getters shrink it from the front.
/// What a decoder borrows out of it (`split_at`) keeps the slice's own
/// lifetime, not the cursor's.
impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "buffer underflow");
        *self = &self[n..];
    }
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.advance(1);
        v
    }
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self[..2].try_into().unwrap());
        self.advance(2);
        v
    }
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().unwrap());
        self.advance(4);
        v
    }
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().unwrap());
        self.advance(8);
        v
    }
}

/// An append-only byte builder; [`BytesMut::freeze`] converts to [`Bytes`].
#[derive(Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// The emptied storage cell of the `Bytes` this buffer was reclaimed
    /// from, if any: uniquely owned, reused by the next `freeze`.
    cell: Option<Arc<Vec<u8>>>,
}

impl Clone for BytesMut {
    /// A copy of the bytes; the storage cell stays with the original.
    fn clone(&self) -> Self {
        BytesMut {
            data: self.data.clone(),
            cell: None,
        }
    }
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
            cell: None,
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

    /// Convert into an immutable [`Bytes`] without copying, into the
    /// storage cell this buffer was reclaimed with when it has one.
    pub fn freeze(self) -> Bytes {
        let Some(mut cell) = self.cell else {
            return Bytes::from(self.data);
        };
        let end = self.data.len();
        // `try_into_mut` handed the cell over as its only owner and nothing
        // can clone it out of a `BytesMut`.
        *Arc::get_mut(&mut cell).expect("a reclaimed cell has one owner") = self.data;
        Bytes {
            data: cell,
            start: 0,
            end,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
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
    fn debug_prints_only_the_viewed_bytes() {
        let whole = Bytes::from(vec![7u8; 37 * 1024]);
        let four = whole.slice(100..104);
        assert_eq!(format!("{four:?}"), r#"b"\x07\x07\x07\x07""#);
        assert_eq!(
            format!("{:?}", Bytes::from(b"a\"\n".to_vec())),
            r#"b"a\"\n""#
        );
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
    fn a_reclaimed_buffer_freezes_into_the_cell_it_came_with() {
        let first = Bytes::from(vec![1, 2, 3]);
        let cell = Arc::as_ptr(&first.data);
        let mut m = first.try_into_mut().expect("sole owner reclaims");
        m.clear();
        m.put_slice(b"again");
        let second = m.freeze();
        assert_eq!(&*second, b"again");
        assert_eq!(Arc::as_ptr(&second.data), cell, "the cell was reused");
        // A slice keeps the cell shared; the last handle still reclaims it.
        let tail = second.slice(2..5);
        let second = second.try_into_mut().expect_err("a slice is in flight");
        drop(second);
        let m = tail.try_into_mut().expect("last handle reclaims");
        assert_eq!(&*m, b"again", "the whole buffer comes back, not the view");
        assert_eq!(Arc::as_ptr(m.cell.as_ref().unwrap()), cell);
    }

    #[test]
    fn slices_read_as_cursors() {
        let bytes = [7u8, 44, 1, 0x70, 0x11, 1, 0, 9, 0, 0, 0, 0, 0, 0, 0, b'x'];
        let mut cur: &[u8] = &bytes;
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u16_le(), 300);
        assert_eq!(cur.get_u32_le(), 70_000);
        assert_eq!(cur.get_u64_le(), 9);
        assert_eq!(cur.remaining(), 1);
        cur.advance(1);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn try_into_mut_rejects_shared_owner() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        let back = b.try_into_mut().expect_err("shared handle stays Bytes");
        assert_eq!(back, c);
    }
}
